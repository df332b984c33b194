package repro.perfbench

/** A fixed unit of hashing and allocation work that does not depend on the
  * program under test. The benchmark times a few units after every
  * explanation to follow how fast the shared machine runs at the moment:
  * its speed drifts by up to 1.5x over minutes, and the search slows with
  * it. The working set (a hash map of 64k string keys, a few MB) is near
  * that of the search on the workloads' tables, so the unit slows when
  * other tenants crowd the caches and memory, as the search does.
  */
object Calibration {
  private val keys: Array[String] = {
    val r = new java.util.Random(1L)
    Array.fill(1 << 17)(Integer.toString(r.nextInt(1 << 16), 36))
  }

  @volatile private var sink = 0

  /** Runs `units` units of work; returns the nanoseconds taken. */
  def time(units: Int): Long = {
    val t0 = System.nanoTime()
    var u = 0
    while (u < units) {
      val counts = new java.util.HashMap[String, Integer]()
      var i = 0
      while (i < keys.length) { counts.merge(keys(i), 1, (a: Integer, b: Integer) => a + b); i += 1 }
      sink += counts.size
      u += 1
    }
    System.nanoTime() - t0
  }
}
