package org.apache.spark

/** Waits until every event posted so far has reached the registered
  * listeners. The listener bus is private to Spark; the benchmark needs it
  * drained so task and shuffle counts are complete when a span closes.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
