package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.core.model.EncodedAttr

/** The overlap-score initialization H^s (§4.2), run as one Spark stage over
  * a broadcast postings index.
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
  * The plan is an inverted-index probe (Sarawagi & Kirpal, SIGMOD 2004).
  * The driver collects both snapshots in row-id order, dictionary-encodes
  * each attribute (`EncodedAttr`, the search's encoding) and builds the
  * target postings of every value the frequency filter keeps. That index is
  * broadcast once; one stage of `defaultParallelism` tasks scores
  * contiguous source ranges against it, and the driver collects each
  * source's best score and match vector. No shuffle is needed because the
  * index fits in driver memory, as the snapshots already do. On DataFrames
  * that `ProblemGen.toDf` builds (local relations, collected without a job)
  * a call runs one Spark job.
  */
object OverlapMatcher {

  /** Result: the chosen id-attribute indices (empty ⇒ fall back to H^∅),
    * the modal best-pair score, and the number of best pairs (sources with
    * at least one candidate target).
    */
  final case class OverlapResult(idAttrs: Set[Int], modalScore: Int, pairs: Long)

  /** Both snapshots as codes, row-major with `d` codes per record, plus the
    * target postings. `first(a)` shifts attribute `a`'s codes into one code
    * space over all attributes; the targets holding value `g` of that space
    * are `postings(start(g) until start(g + 1))`, in ascending order, and
    * none for a value the frequency filter drops.
    */
  private final class Index(
      d: Int,
      val nSrc: Int,
      nTgt: Int,
      src: Array[Int],
      tgt: Array[Int],
      first: Array[Int],
      start: Array[Int],
      postings: Array[Int],
  ) extends Serializable {

    def hasPairs: Boolean = postings.nonEmpty

    /** The best target of each source in `[lo, hi)` that has a candidate:
      * its score and which attributes it matches on.
      */
    def best(lo: Int, hi: Int): Array[(Int, Array[Boolean])] = {
      val stamp = new Array[Int](nTgt) // i + 1 once source i has scored target j
      val out = Array.newBuilder[(Int, Array[Boolean])]
      var i = lo
      while (i < hi) {
        val s = i * d
        var bestScore = -1
        var bestJ = -1
        var a = 0
        while (a < d) {
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
          a += 1
        }
        if (bestJ >= 0) out += ((bestScore, Array.tabulate(d)(b => src(s + b) == tgt(bestJ * d + b))))
        i += 1
      }
      out.result()
    }
  }

  private object Index {
    def apply(source: Array[Array[String]], target: Array[Array[String]], d: Int, maxBlock: Long): Index = {
      val cols = Array.tabulate(d)(EncodedAttr(source, target, _))
      val first = cols.scanLeft(0)(_ + _.size)
      val n = first(d)
      def rowMajor(side: EncodedAttr => Array[Int], rows: Int, count: Array[Int]): Array[Int] = {
        val codes = new Array[Int](rows * d)
        for (a <- 0 until d; (c, r) <- side(cols(a)).zipWithIndex) {
          codes(r * d + a) = c
          count(first(a) + c) += 1
        }
        codes
      }
      val sCount = new Array[Int](n)
      val tCount = new Array[Int](n)
      val src = rowMajor(_.src, source.length, sCount)
      val tgt = rowMajor(_.tgt, target.length, tCount)

      val start = new Array[Int](n + 1)
      for (g <- 0 until n) {
        val kept = sCount(g) > 0 && tCount(g) > 0 && sCount(g).toLong * tCount(g) <= maxBlock
        start(g + 1) = start(g) + (if (kept) tCount(g) else 0)
      }
      // A kept value's range has room for each of its targets, a dropped
      // value's range for none.
      val postings = new Array[Int](start(n))
      val fill = start.clone()
      for (j <- target.indices; a <- 0 until d) {
        val g = first(a) + tgt(j * d + a)
        if (fill(g) < start(g + 1)) { postings(fill(g)) = j; fill(g) += 1 }
      }
      new Index(d, source.length, target.length, src, tgt, first, start, postings)
    }
  }

  /** A snapshot's attribute values, one array per record, in `__row` order. */
  private def rows(df: DataFrame, attrs: Seq[String]): Array[Array[String]] =
    df.select(col("__row") +: attrs.map(a => col(s"`$a`")): _*)
      .collect()
      .sortBy(_.getLong(0))
      .map(r => Array.tabulate(attrs.size)(a => r.getString(a + 1)))

  def compute(
      s: DataFrame,
      t: DataFrame,
      attrs: Seq[String],
      maxBlock: Long = 100000L,
  ): OverlapResult = {
    val d = attrs.size
    val index = Index(rows(s, attrs), rows(t, attrs), d, maxBlock)
    if (!index.hasPairs) return OverlapResult(Set.empty, 0, 0L)

    // One task per slot, each scoring a contiguous range of sources.
    val ctx = s.sparkSession.sparkContext
    val p = ctx.defaultParallelism
    val n = index.nSrc.toLong
    val shared = ctx.broadcast(index)
    val best =
      try ctx.parallelize(0 until p, p).flatMap(k => shared.value.best((k * n / p).toInt, ((k + 1) * n / p).toInt)).collect()
      finally shared.destroy()

    // Modal score k' and per-attribute overlap frequency over best pairs.
    val modal = best
      .groupBy(_._1)
      .toSeq
      .maxBy { case (sc, ps) => (ps.length, sc) }
      ._1
    val attrCounts = Array.tabulate(d)(i => best.count(_._2(i)))
    val kPrime = math.max(1, modal)
    val idAttrs = (0 until d).sortBy(i => (-attrCounts(i), i)).take(kPrime).toSet
    OverlapResult(idAttrs, modal, best.length.toLong)
  }
}
