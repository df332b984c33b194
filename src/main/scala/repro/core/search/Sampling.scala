package repro.core.search

import scala.collection.mutable
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
    var n = buf.length
    while (n >= 2) {
      val k = rnd.nextInt(n)
      val tmp = buf(n - 1)
      buf(n - 1) = buf(k)
      buf(k) = tmp
      n -= 1
    }
    buf
  }

  /** Sample a random alignment of all records that respects Φ_H: within
    * each mixed block, pair a random permutation of the sources with a
    * random permutation of the targets (Sample-Random-Alignment).
    * Returns (source index, target index) pairs.
    */
  def randomAlignment(blocking: BlockingResult, rnd: Random): Array[(Int, Int)] = {
    val out = mutable.ArrayBuilder.make[(Int, Int)]
    val mixed = blocking.mixed
    var i = 0
    while (i < mixed.length) {
      val b = mixed(i)
      val s = shuffle(b.src, rnd)
      val t = shuffle(b.tgt, rnd)
      val n = math.min(s.length, t.length)
      var k = 0
      while (k < n) { out += ((s(k), t(k))); k += 1 }
      i += 1
    }
    out.result()
  }

  /** Induce-Greedy-Map: map each source value of the attribute to the
    * target value with the highest co-occurrence in the alignment (ties
    * break deterministically by lexicographic order, `null` first). Entries
    * include identity pairs — they still cost 2 parameters each.
    */
  def greedyMap(inst: LocalInstance, alignment: Array[(Int, Int)], attr: Int): Funcs.ValueMap =
    greedyCodes(inst.encoded(attr), alignment).valueMap

  /** [[greedyMap]] on the codes of `col`, before any value is looked up. */
  def greedyCodes(col: EncodedAttr, alignment: Array[(Int, Int)]): GreedyMap = {
    // (source code, target code) pairs, sorted: equal pairs form runs, and
    // the runs of one source code come in target value order.
    val pairs = alignment.map { case (s, t) => (col.src(s).toLong << 32) | col.tgt(t).toLong }
    java.util.Arrays.sort(pairs)
    val keys = mutable.ArrayBuilder.make[Int]
    val values = mutable.ArrayBuilder.make[Int]
    var i = 0
    while (i < pairs.length) {
      val sv = (pairs(i) >>> 32).toInt
      var best = -1
      var bestCount = 0
      while (i < pairs.length && (pairs(i) >>> 32).toInt == sv) {
        val pair = pairs(i)
        var run = 0
        while (i < pairs.length && pairs(i) == pair) { run += 1; i += 1 }
        if (run > bestCount) { best = pair.toInt; bestCount = run }
      }
      keys += sv
      values += best
    }
    new GreedyMap(col, keys.result(), values.result())
  }
}

/** A greedy value map on the codes of one attribute: source code `keys(i)`
  * maps to target code `values(i)`, keys ascending, and every other code
  * maps to itself. ψ counts 2 per entry, as for the [[Funcs.ValueMap]] it
  * stands for; [[valueMap]] builds that map's strings.
  */
final class GreedyMap private[search] (col: EncodedAttr, keys: Array[Int], values: Array[Int]) extends CodeMap {
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
