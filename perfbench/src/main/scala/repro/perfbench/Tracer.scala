package repro.perfbench

import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span has a name, start and end (nanoTime), the span that was open when
  * it started (its parent) and the instance it belongs to. Spans are kept in
  * growable columns and written out only when the benchmark ends, so
  * recording one costs two `nanoTime` calls and a few array stores.
  */
final class Tracer {
  private val names = mutable.ArrayBuffer.empty[String]
  private val starts = mutable.ArrayBuffer.empty[Long]
  private val ends = mutable.ArrayBuffer.empty[Long]
  private val parents = mutable.ArrayBuffer.empty[Int]
  private val instances = mutable.ArrayBuffer.empty[Int]
  private var open = -1

  /** Instance id stamped on every span opened from now on. */
  var instance: Int = -1

  def span[A](name: String)(body: => A): A = {
    val id = names.length
    names += name
    parents += open
    instances += instance
    ends += -1L
    open = id
    starts += System.nanoTime()
    try body
    finally {
      ends(id) = System.nanoTime()
      open = parents(id)
    }
  }

  def size: Int = names.length

  /** Per-name inclusive and self seconds and call counts over the spans
    * with index in `[from, until)`. Self time is the span's duration minus
    * the durations of its direct children.
    */
  def summary(from: Int, until: Int): Map[String, Tracer.Agg] = {
    val childNanos = new Array[Long](until - from)
    var i = from
    while (i < until) {
      val p = parents(i)
      if (p >= from) childNanos(p - from) += ends(i) - starts(i)
      i += 1
    }
    val out = mutable.HashMap.empty[String, Tracer.Agg]
    i = from
    while (i < until) {
      val dur = ends(i) - starts(i)
      val a = out.getOrElseUpdate(names(i), new Tracer.Agg)
      a.calls += 1
      a.nanos += dur
      a.selfNanos += dur - childNanos(i - from)
      i += 1
    }
    out.toMap
  }

  /** Spans as JSON lines: name, start and end (ns since the first span),
    * parent span index (-1 for a root) and instance id.
    */
  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val t0 = if (starts.isEmpty) 0L else starts.head
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      var i = 0
      while (i < names.length) {
        w.write(
          s"""{"id":$i,"name":"${names(i)}","start_ns":${starts(i) - t0},"end_ns":${ends(i) - t0},""" +
            s""""parent":${parents(i)},"instance":${instances(i)}}""")
        w.newLine()
        i += 1
      }
    } finally w.close()
  }
}

object Tracer {
  final class Agg {
    var calls: Long = 0
    var nanos: Long = 0
    var selfNanos: Long = 0
    def seconds: Double = nanos / 1e9
    def selfSeconds: Double = selfNanos / 1e9
  }
}
