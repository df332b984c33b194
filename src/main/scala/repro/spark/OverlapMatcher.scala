package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The overlap-score initialization H^s (§4.2), expressed as one DataFrame
  * query with two shuffle rounds.
  *
  * Candidate record pairs share a value of some attribute, skipping
  * attribute values whose source×target frequency product exceeds
  * `maxBlock` (the paper's configurable maximum block size, default
  * 100 000). Each candidate pair is then scored with the *full* attribute
  * overlap (1 per attribute with identical values); for every source record
  * the best-scoring target is kept. The modal score k' over these pairs
  * estimates the number of unchanged attributes, and the k' most frequently
  * overlapping attributes form the id-assigned start state.
  *
  * `null` is a value equal only to itself, as in the local engine: null
  * cells share a value group and score as equal to each other.
  *
  * The plan: one melt of S ∪ T and one `(attr, value)` aggregation that
  * collects both sides' row ids (shuffle 1); candidate pairs look both rows
  * up through broadcast joins (both snapshots are driver-resident, see
  * `ProblemGen.toDf`) and keep the best target per source in one
  * aggregation (shuffle 2).
  */
object OverlapMatcher {

  /** Result: the chosen id-attribute indices (empty ⇒ fall back to H^∅),
    * the modal best-pair score, and the number of best pairs (sources with
    * at least one candidate target).
    */
  final case class OverlapResult(idAttrs: Set[Int], modalScore: Int, pairs: Long)

  /** A snapshot as (rid, row), `row` holding the attribute values in order. */
  private def rows(df: DataFrame, attrs: Seq[String]): DataFrame =
    df.select(col("__row").as("rid"), array(attrs.map(a => col(s"`$a`")): _*).as("row"))

  def compute(
      s: DataFrame,
      t: DataFrame,
      attrs: Seq[String],
      maxBlock: Long = 100000L,
  ): OverlapResult = {
    val d = attrs.size
    val sRows = rows(s, attrs)
    val tRows = rows(t, attrs)

    // Shuffle 1: per (attr, value), the source and target rids holding it.
    // Its list sizes are the frequency filter: drop values absent from one
    // side and values whose pair product explodes.
    val groups = sRows.withColumn("src", lit(true))
      .unionByName(tRows.withColumn("src", lit(false)))
      .select(col("src"), col("rid"), posexplode(col("row")).as(Seq("attr", "value")))
      .groupBy("attr", "value")
      .agg(
        collect_list(when(col("src"), col("rid"))).as("srids"),
        collect_list(when(!col("src"), col("rid"))).as("trids"))
      .where(size(col("srids")) > 0 && size(col("trids")) > 0 &&
        size(col("srids")).cast("long") * size(col("trids")) <= maxBlock)

    // Candidate pairs, without `distinct`: a pair shared by several values
    // appears once per value, which cannot change a maximum.
    val candidates = groups
      .select(explode(col("srids")).as("srid"), col("trids"))
      .select(col("srid"), explode(col("trids")).as("trid"))

    // Full overlap of each pair, on rows looked up by broadcast.
    val matches = zip_with(col("srow"), col("trow"), (a, b) => a <=> b)
    val scored = candidates
      .join(broadcast(sRows.select(col("rid").as("srid"), col("row").as("srow"))), "srid")
      .join(broadcast(tRows.select(col("rid").as("trid"), col("row").as("trow"))), "trid")
      .select(col("srid"), col("trid"), matches.as("matches"))
      .withColumn("score", aggregate(col("matches"), lit(0), (n, m) => n + when(m, 1).otherwise(0)))

    // Shuffle 2: the best target per source record, by highest score and
    // then smallest target row id.
    val best = scored
      .groupBy("srid")
      .agg(max(struct(col("score"), (-col("trid")).as("ntrid"), col("matches"))).as("best"))
      .select(col("best.score"), col("best.matches"))
      .collect()
      .map(r => (r.getInt(0), r.getSeq[Boolean](1)))
    if (best.isEmpty) return OverlapResult(Set.empty, 0, 0L)

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
