package repro.spark

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.AffidavitSpec
import repro.core.model.{LocalInstance, RunningExample}
import repro.core.search.{Affidavit, AffidavitConfig, InitStrategy}
import repro.gen.ProblemGen

class ExplanationApplierSpec extends SparkSpec {

  private val inst = RunningExample.instance
  private lazy val sDf = ProblemGen.toDf(spark, inst, inst.source)
  private lazy val tDf = ProblemGen.toDf(spark, inst, inst.target)

  test("applying E1's functions to the core reproduces T \\ T+ exactly") {
    assert(ExplanationApplier.unmatchedCoreImage(sDf, tDf, inst.attrs, RunningExample.e1) == 0L)
  }

  test("the core image has |core| rows") {
    val img = ExplanationApplier.coreImage(sDf, inst.attrs, RunningExample.e1)
    assert(img.count() == RunningExample.e1.coreSize)
  }

  test("a wrong function is caught as unmatched rows") {
    val broken = RunningExample.e1.copy(
      funcs = RunningExample.e1.funcs.updated(4, repro.core.functions.Funcs.Identity))
    assert(ExplanationApplier.unmatchedCoreImage(sDf, tDf, inst.attrs, broken) > 0L)
  }

  /** Two rows, one with a `null` cell, in both snapshots. */
  private val nullCells = {
    val rows: Array[Array[String]] = Array(Array("a", null), Array("b", "x"))
    LocalInstance(Vector("k", "v"), rows, rows.map(_.clone))
  }

  test("rows with null cells match their null-valued target rows") {
    val i = nullCells
    val res = Affidavit.run(i, AffidavitConfig(seed = 1), InitStrategy.Id)
    assert(res.explanation.isValidFor(i) && res.cost == 0.0)
    val s = ProblemGen.toDf(spark, i, i.source)
    val t = ProblemGen.toDf(spark, i, i.target)
    assert(ExplanationApplier.unmatchedCoreImage(s, t, i.attrs, res.explanation) == 0L)
  }

  test("edge cases: the core image of Affidavit's explanation is exactly T without T+") {
    for ((name, i) <- AffidavitSpec.edgeCases) {
      val e = Affidavit.run(i, AffidavitConfig.hidConfig(3), InitStrategy.Id).explanation
      val s = ProblemGen.toDf(spark, i, i.source)
      val t = ProblemGen.toDf(spark, i, i.target)
      assert(ExplanationApplier.unmatchedCoreImage(s, t, i.attrs, e) == 0L, name)
      val image = ExplanationApplier.coreImage(s, i.attrs, e).select(i.attrs.map(col): _*)
        .collect().map(r => i.attrs.indices.map(r.getString)).toSeq
      val core = e.alignment.map { case (src, _) => e.transform(i.source(src)).toSeq }
      assert(image.groupBy(identity).view.mapValues(_.size).toMap ==
        core.groupBy(identity).view.mapValues(_.size).toMap, name)
    }
  }

  test("DuckDB: the core image is T without T+, nulls and edge cases included") {
    for ((name, i) <- AffidavitSpec.edgeCases :+ ("null cells" -> nullCells)) {
      val e = Affidavit.run(i, AffidavitConfig.hidConfig(3), InitStrategy.Id).explanation
      val image = ExplanationApplier.coreImage(ProblemGen.toDf(spark, i, i.source), i.attrs, e)
      val where = if (e.inserted.isEmpty) "" else e.inserted.mkString(" WHERE __row NOT IN ('", "', '", "')")
      withClue(name) {
        Oracle.assertEquivalent(
          image.select(i.attrs.map(col): _*),
          s"SELECT ${i.attrs.mkString(", ")} FROM t$where",
          "t" -> ProblemGen.toDf(spark, i, i.target))
      }
    }
  }

  test("explanations generalize: unseen records transform correctly") {
    // A record that was never part of I1 — the paper's headline use case.
    val unseen = ProblemGen.toDf(
      spark, inst, Array(Array("S99", "0099", "99991231", "D", "123000", "USD", "SAP")))
    val out = ExplanationApplier
      .transform(unseen, inst.attrs, RunningExample.e1.funcs)
      .select(inst.attrs.map(col): _*)
      .collect()(0)
    assert(out.getString(2) == "20180701") // date prefix replaced
    assert(out.getString(4) == "123")      // divided by 1000
    assert(out.getString(5) == "k $")      // unit constant
    assert(out.getString(6) == "SAP")      // identity
  }

  test("oracle: identity transform leaves the snapshot unchanged") {
    val id = inst.attrs.map(_ => repro.core.functions.Funcs.Identity: repro.core.model.AttrFunc)
    val out = ExplanationApplier.transform(sDf, inst.attrs, id.toVector)
      .select(inst.attrs.map(col): _*)
    Oracle.assertEquivalent(
      out,
      s"SELECT ${inst.attrs.mkString(", ")} FROM s",
      "s" -> sDf.select(inst.attrs.map(col): _*))
  }

  test("oracle catches a wrong result") {
    val s = sDf.select(inst.attrs.map(col): _*)
    val transformed = ExplanationApplier.transform(s, inst.attrs, RunningExample.e1.funcs)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(transformed, s"SELECT ${inst.attrs.mkString(", ")} FROM s", "s" -> s)
    }
  }

  test("transform keeps non-attribute columns like __row") {
    val out = ExplanationApplier.transform(sDf, inst.attrs, RunningExample.e1.funcs)
    assert(out.columns.contains("__row"))
    assert(out.count() == 17)
  }
}
