package repro.core.model

/** A set of non-negative ints (codes, block indices, candidate ids) that
  * empties in O(1): [[clear]] starts a new round, and a mark of an earlier
  * round reads as absent. The backing array grows on demand and is never
  * wiped per call, so one instance serves every call of a search run as
  * scratch.
  */
final class Marks {
  private var stamps = new Array[Int](16)
  private var round = 1

  /** Empties the set. */
  def clear(): Unit = {
    if (round == Int.MaxValue) {
      java.util.Arrays.fill(stamps, 0)
      round = 0
    }
    round += 1
  }

  /** Adds `x`; true if it was absent. */
  def add(x: Int): Boolean = {
    if (x >= stamps.length) stamps = java.util.Arrays.copyOf(stamps, math.max(x + 1, 2 * stamps.length))
    if (stamps(x) == round) false
    else {
      stamps(x) = round
      true
    }
  }
}
