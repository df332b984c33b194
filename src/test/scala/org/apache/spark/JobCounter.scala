package org.apache.spark

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of code starts. The listener bus is
  * private to Spark, so this lives in its package: the bus is drained
  * before and after the block, so every job start posted by the block, and
  * none posted before it, is counted.
  */
object JobCounter {
  def apply[A](sc: SparkContext)(body: => A): (A, Long) = {
    val jobs = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val out = body
      sc.listenerBus.waitUntilEmpty()
      (out, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
