package repro.core.search

import scala.util.Random

import repro.core.blocking.BlockingResult
import repro.core.functions.Funcs
import repro.core.model.{CodeMap, EncodedAttr, LocalInstance}

/** Random-alignment sampling and greedy value-map induction (§4.3). */
object Sampling {

  /** A shuffled copy of `xs`: the permutation `rnd.shuffle(xs.toVector)`
    * gives, drawing the same numbers from `rnd`, without boxing.
    */
  def shuffle(xs: Array[Int], rnd: Random): Array[Int] = {
    val buf = xs.clone()
    shuffleRange(buf, 0, buf.length, rnd)
    buf
  }

  /** The first `k` entries of `shuffle(Array.range(0, n), rnd)`, drawing the
    * same numbers from `rnd`: a sample of `k` distinct positions below `n`.
    */
  def draw(n: Int, k: Int, rnd: Random): Array[Int] = {
    val buf = Array.range(0, n)
    shuffleRange(buf, 0, buf.length, rnd)
    if (k >= n) buf else java.util.Arrays.copyOf(buf, k)
  }

  /** Shuffles `buf(from until until)` in place, with the draws
    * [[shuffle]] makes on a copy of that range.
    */
  private def shuffleRange(buf: Array[Int], from: Int, until: Int, rnd: Random): Unit = {
    var n = until - from
    while (n >= 2) {
      val k = from + rnd.nextInt(n)
      val tmp = buf(from + n - 1)
      buf(from + n - 1) = buf(k)
      buf(k) = tmp
      n -= 1
    }
  }

  /** Sample a random alignment of all records that respects Φ_H: within
    * each mixed block, pair a random permutation of the sources with a
    * random permutation of the targets (Sample-Random-Alignment), block by
    * block, sources before targets.
    * Returns (source index, target index) pairs.
    */
  def randomAlignment(blocking: BlockingResult, rnd: Random): Array[(Int, Int)] = {
    val src = blocking.src.clone()
    val tgt = blocking.tgt.clone()
    var b = 0
    while (b < blocking.size) {
      shuffleRange(src, blocking.srcStart(b), blocking.srcStart(b + 1), rnd)
      shuffleRange(tgt, blocking.tgtStart(b), blocking.tgtStart(b + 1), rnd)
      b += 1
    }
    blocking.pairs(src, tgt)
  }

  /** Induce-Greedy-Map: map each source value of the attribute to the
    * target value with the highest co-occurrence in the alignment (ties
    * break deterministically by lexicographic order, `null` first). Entries
    * include identity pairs — they still cost 2 parameters each. The
    * search refines by [[greedyCodes]]' code map instead.
    */
  def greedyMap(inst: LocalInstance, alignment: Array[(Int, Int)], attr: Int): Funcs.ValueMap =
    greedyCodes(inst.encoded(attr), alignment).valueMap

  /** [[greedyMap]] on the codes of `col`, before any value is looked up:
    * the aligned target codes are bucketed by source code (a counting
    * sort), and each bucket's targets are counted in a code-indexed array.
    * Of equally frequent targets the smallest code, the first in value
    * order, wins.
    */
  def greedyCodes(col: EncodedAttr, alignment: Array[(Int, Int)]): GreedyMap = {
    // start(c) until start(c + 1): the bucket of source code c in `tgts`.
    val start = new Array[Int](col.size + 1)
    var i = 0
    while (i < alignment.length) { start(col.src(alignment(i)._1) + 1) += 1; i += 1 }
    var nKeys = 0
    var c = 0
    while (c < col.size) {
      if (start(c + 1) > 0) nKeys += 1
      start(c + 1) += start(c)
      c += 1
    }
    val tgts = new Array[Int](alignment.length)
    val next = java.util.Arrays.copyOf(start, col.size) // next free slot per bucket
    i = 0
    while (i < alignment.length) {
      val b = col.src(alignment(i)._1)
      tgts(next(b)) = col.tgt(alignment(i)._2)
      next(b) += 1
      i += 1
    }
    val count = new Array[Int](col.size) // per target code; zero between buckets
    val keys = new Array[Int](nKeys)
    val values = new Array[Int](nKeys)
    var k = 0
    c = 0
    while (c < col.size) {
      if (start(c) < start(c + 1)) {
        var best = -1
        var bestCount = 0
        var j = start(c)
        while (j < start(c + 1)) {
          val t = tgts(j)
          count(t) += 1
          if (count(t) > bestCount || (count(t) == bestCount && t < best)) { best = t; bestCount = count(t) }
          j += 1
        }
        j = start(c)
        while (j < start(c + 1)) { count(tgts(j)) = 0; j += 1 }
        keys(k) = c
        values(k) = best
        k += 1
      }
      c += 1
    }
    new GreedyMap(col, keys, values)
  }
}

/** A greedy value map on the codes of one attribute: source code `keys(i)`
  * maps to target code `values(i)`, keys ascending, and every other code
  * maps to itself. ψ counts 2 per entry, as for the [[Funcs.ValueMap]] it
  * stands for; [[valueMap]] builds that map's strings.
  */
final class GreedyMap private[search] (
    col: EncodedAttr,
    private[core] val keys: Array[Int],
    private[core] val values: Array[Int],
) extends CodeMap {
  private lazy val to = { // target code + 1; 0 = no entry
    val t = new Array[Int](col.size)
    keys.indices.foreach(i => t(keys(i)) = values(i) + 1)
    t
  }

  def psi: Int = 2 * keys.length

  def apply(c: Int): Int = {
    val t = to(c)
    if (t == 0) c else t - 1
  }

  def valueMap: Funcs.ValueMap =
    Funcs.ValueMap(keys.indices.iterator.map(i => col.dict(keys(i)) -> col.dict(values(i))).toMap)
}

/** `java.util.Random` with its 48-bit linear congruential state in a plain
  * `Long` rather than an `AtomicLong`, so a draw is no compare-and-set. For
  * one seed it draws the same numbers from every method: they all take
  * their bits from `next`, and `nextInt(bound)` keeps its rejection loop.
  * Not thread-safe; a search extension draws from one of its own, wrapped
  * as `new scala.util.Random(new LcgRandom(seed))`.
  */
final class LcgRandom(seed: Long) extends java.util.Random(seed) {
  // Set by setSeed, which java.util.Random's constructor calls; `= _` adds
  // no initializer that would run after it.
  private var state: Long = _

  override def setSeed(seed: Long): Unit = {
    super.setSeed(seed)
    state = (seed ^ LcgRandom.Multiplier) & LcgRandom.Mask
  }

  override protected def next(bits: Int): Int = {
    state = (state * LcgRandom.Multiplier + LcgRandom.Addend) & LcgRandom.Mask
    (state >>> (48 - bits)).toInt
  }
}

object LcgRandom {
  private final val Multiplier = 0x5DEECE66DL
  private final val Addend = 0xBL
  private final val Mask = (1L << 48) - 1
}
