package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.core.model.EncodedAttr

/** The overlap-score initialization H^s (§4.2), scored on the driver over
  * the dictionary-encoded snapshots.
  *
  * Candidate record pairs share a value of some attribute, skipping
  * attribute values whose source×target frequency product exceeds
  * `maxBlock` (the paper's configurable maximum block size, default
  * 100 000). Each candidate pair is then scored with the *full* attribute
  * overlap (1 per attribute with identical values); for every source record
  * the best-scoring target is kept, ties going to the smallest target row
  * id. The modal score k' over these pairs estimates the number of unchanged
  * attributes, and the k' most frequently overlapping attributes form the
  * id-assigned start state.
  *
  * `null` is a value equal only to itself, as in the local engine: null
  * cells share a value group and score as equal to each other.
  *
  * The plan is an inverted-index probe (Sarawagi & Kirpal, SIGMOD 2004)
  * over the search's encoding (`EncodedAttr`): the target postings of every
  * value the frequency filter keeps, probed by each source record in turn.
  * `compute(cols, maxBlock)` reads the codes a `LocalInstance` already holds
  * and runs no Spark job; `compute(s, t, attrs)` collects and encodes two
  * DataFrames first. A Spark stage over a broadcast index was slower, or at
  * best even, on every instance measured (DESIGN.md, "Layering note").
  */
object OverlapMatcher {

  /** The paper's default maximum block size. */
  val MaxBlock: Long = 100000L

  /** Result: the chosen id-attribute indices (empty ⇒ fall back to H^∅),
    * the modal best-pair score, and the number of best pairs (sources with
    * at least one candidate target).
    */
  final case class OverlapResult(idAttrs: Set[Int], modalScore: Int, pairs: Long)

  /** H^s over dictionary-encoded snapshots, one [[EncodedAttr]] per
    * attribute (a `LocalInstance`'s `encoded`); record order is row-id order.
    */
  def compute(cols: Array[EncodedAttr], maxBlock: Long): OverlapResult = {
    // Both snapshots as codes, row-major with `d` codes per record.
    // `first(a)` shifts attribute `a`'s codes into one code space over all
    // attributes.
    val d = cols.length
    val nSrc = cols.headOption.fold(0)(_.src.length)
    val nTgt = cols.headOption.fold(0)(_.tgt.length)
    val first = cols.scanLeft(0)(_ + _.size)
    val n = first(d)
    def rowMajor(side: EncodedAttr => Array[Int], rows: Int, count: Array[Int]): Array[Int] = {
      val codes = new Array[Int](rows * d)
      for (a <- 0 until d; c = side(cols(a)); r <- 0 until rows) {
        codes(r * d + a) = c(r)
        count(first(a) + c(r)) += 1
      }
      codes
    }
    val sCount = new Array[Int](n)
    val tCount = new Array[Int](n)
    val src = rowMajor(_.src, nSrc, sCount)
    val tgt = rowMajor(_.tgt, nTgt, tCount)

    // The targets holding value `g` are `postings(start(g) until
    // start(g + 1))`, in ascending order: all of them for a value the
    // frequency filter keeps, none for a value it drops.
    val start = new Array[Int](n + 1)
    for (g <- 0 until n) {
      val kept = sCount(g) > 0 && tCount(g) > 0 && sCount(g).toLong * tCount(g) <= maxBlock
      start(g + 1) = start(g) + (if (kept) tCount(g) else 0)
    }
    val postings = new Array[Int](start(n))
    val fill = start.clone()
    for (j <- 0 until nTgt; a <- 0 until d) {
      val g = first(a) + tgt(j * d + a)
      if (fill(g) < start(g + 1)) { postings(fill(g)) = j; fill(g) += 1 }
    }

    // Each source probes the postings of its values and scores a target on
    // all attributes when it first finds it. A target first found after the
    // postings of `kept` values were probed holds none of those values, so
    // it scores at most d - kept: once that is below the best score so far,
    // no target left can win and the source is done. Of the best pairs (the
    // best target of each source that has a candidate) only counts are
    // kept: how many have each score, and how many match on each attribute.
    val stamp = new Array[Int](nTgt) // i + 1 once source i has scored target j
    val byScore = new Array[Long](d + 1)
    val byAttr = new Array[Long](d)
    for (i <- 0 until nSrc) {
      val s = i * d
      var bestScore = -1
      var bestJ = -1
      var kept = 0
      var a = 0
      while (a < d && d - kept >= bestScore) {
        val g = first(a) + src(s + a)
        var p = start(g)
        while (p < start(g + 1)) {
          val j = postings(p)
          if (stamp(j) != i + 1) {
            stamp(j) = i + 1
            val t = j * d
            var score = 0
            var b = 0
            while (b < d) { if (src(s + b) == tgt(t + b)) score += 1; b += 1 }
            if (score > bestScore || (score == bestScore && j < bestJ)) { bestScore = score; bestJ = j }
          }
          p += 1
        }
        if (start(g) < start(g + 1)) kept += 1
        a += 1
      }
      if (bestJ >= 0) {
        byScore(bestScore) += 1
        val t = bestJ * d
        var b = 0
        while (b < d) { if (src(s + b) == tgt(t + b)) byAttr(b) += 1; b += 1 }
      }
    }
    val pairs = byScore.sum
    if (pairs == 0) return OverlapResult(Set.empty, 0, 0L)
    // The modal score k', ties going to the higher score, and the k' most
    // frequently overlapping attributes.
    val modal = (0 to d).maxBy(sc => (byScore(sc), sc))
    val idAttrs = cols.indices.sortBy(i => (-byAttr(i), i)).take(math.max(1, modal)).toSet
    OverlapResult(idAttrs, modal, pairs)
  }

  /** A snapshot's attribute values, one array per record, in `__row` order. */
  private def rows(df: DataFrame, attrs: Seq[String]): Array[Array[String]] =
    df.select(col("__row") +: attrs.map(a => col(s"`$a`")): _*)
      .collect()
      .sortBy(_.getLong(0))
      .map(r => Array.tabulate(attrs.size)(a => r.getString(a + 1)))

  /** H^s over two snapshots with a `__row` id column and the columns
    * `attrs`, collected to the driver and encoded like a `LocalInstance`.
    */
  def compute(
      s: DataFrame,
      t: DataFrame,
      attrs: Seq[String],
      maxBlock: Long = MaxBlock,
  ): OverlapResult = {
    val (source, target) = (rows(s, attrs), rows(t, attrs))
    compute(Array.tabulate(attrs.size)(EncodedAttr(source, target, _)), maxBlock)
  }
}
