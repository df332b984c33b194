package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** The classic table-comparison baseline (§1/§2): diff two snapshots by a
  * trusted key, reporting inserted, deleted, and updated records.
  *
  * This is what commercial tools (SQL Data Compare etc.) do; it is correct
  * when the key is immutable and silently wrong when keys are reassigned —
  * the failure mode that motivates the paper. The bench uses it as a
  * baseline to quantify exactly that failure on generated instances.
  */
object SnapshotDiff {

  final case class DiffReport(deleted: DataFrame, inserted: DataFrame, updated: DataFrame)

  /** Key-based diff via anti- and inner joins. `updated` contains one row
    * per key present on both sides whose non-key attributes differ, with
    * source columns prefixed `s_` and target columns prefixed `t_`.
    */
  def diff(s: DataFrame, t: DataFrame, keyCols: Seq[String]): DiffReport = {
    require(keyCols.nonEmpty, "diff needs a key")
    val valueCols = s.columns.filterNot(c => keyCols.contains(c) || c == "__row").toSeq
    val deleted = s.join(t, keyCols, "left_anti")
    val inserted = t.join(s, keyCols, "left_anti")

    val sSel = keyCols.map(col) ++ valueCols.map(c => col(c).as(s"s_$c"))
    val tSel = keyCols.map(col) ++ valueCols.map(c => col(c).as(s"t_$c"))
    val joined = s.select(sSel: _*).join(t.select(tSel: _*), keyCols)
    val anyDiff: Column = valueCols
      .map(c => not(col(s"s_$c") <=> col(s"t_$c")))
      .reduceOption(_ || _)
      .getOrElse(lit(false))
    DiffReport(deleted, inserted, joined.where(anyDiff))
  }

  /** Fraction of key-matched pairs that are correct under a ground-truth
    * alignment given as (source `__row`, target `__row`) pairs — used to
    * quantify the baseline's failure under key reassignment. Records are
    * paired by the same join on `keyCols` as in [[diff]], so a `null` key
    * part matches nothing.
    */
  def keyAlignmentAccuracy(
      s: DataFrame,
      t: DataFrame,
      keyCols: Seq[String],
      truth: Set[(Long, Long)],
  ): Double = {
    val pairs = s
      .select(col("__row").as("srow") +: keyCols.map(col): _*)
      .join(t.select(col("__row").as("trow") +: keyCols.map(col): _*), keyCols)
      .select("srow", "trow")
      .collect()
      .map(r => (r.getLong(0), r.getLong(1)))
    if (pairs.isEmpty) 0.0
    else pairs.count(truth.contains).toDouble / pairs.length
  }
}
