package repro.spark

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.gen.{Datasets, ProblemGen}

class SnapshotDiffSpec extends SparkSpec {

  private def df(rows: Seq[(String, String, String)]) = {
    val spark0 = spark
    import spark0.implicits._
    rows.zipWithIndex
      .map { case ((id, a, b), i) => (i.toLong, id, a, b) }
      .toDF("__row", "id", "a", "b")
  }

  private val s = df(Seq(("1", "x", "p"), ("2", "y", "q"), ("3", "z", "r")))
  private val t = df(Seq(("1", "x", "p"), ("2", "y2", "q"), ("4", "w", "s")))

  test("keyed diff finds deletions") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    assert(rep.deleted.select("id").collect().map(_.getString(0)).toSet == Set("3"))
  }

  test("keyed diff finds insertions") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    assert(rep.inserted.select("id").collect().map(_.getString(0)).toSet == Set("4"))
  }

  test("keyed diff finds updates with before/after values") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    val upd = rep.updated.collect()
    assert(upd.length == 1)
    val r = upd(0)
    assert(r.getAs[String]("id") == "2")
    assert(r.getAs[String]("s_a") == "y" && r.getAs[String]("t_a") == "y2")
  }

  test("oracle: deletions match DuckDB's anti join") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    Oracle.assertEquivalent(
      rep.deleted.select("id", "a", "b"),
      "SELECT id, a, b FROM s WHERE id NOT IN (SELECT id FROM t)",
      "s" -> s.select("id", "a", "b"), "t" -> t.select("id", "a", "b"))
  }

  test("oracle: insertions match DuckDB's anti join") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    Oracle.assertEquivalent(
      rep.inserted.select("id", "a", "b"),
      "SELECT id, a, b FROM t WHERE id NOT IN (SELECT id FROM s)",
      "s" -> s.select("id", "a", "b"), "t" -> t.select("id", "a", "b"))
  }

  test("oracle: updates match DuckDB's join with difference predicate") {
    val rep = SnapshotDiff.diff(s, t, Seq("id"))
    Oracle.assertEquivalent(
      rep.updated.select(col("id"), col("s_a"), col("t_a")),
      """SELECT s.id AS id, s.a AS s_a, t.a AS t_a
        |FROM s JOIN t ON s.id = t.id
        |WHERE s.a <> t.a OR s.b <> t.b""".stripMargin,
      "s" -> s.select("id", "a", "b"), "t" -> t.select("id", "a", "b"))
  }

  test("the keyed baseline mis-aligns everything under key reassignment") {
    // The motivating failure: pk permuted between snapshots.
    val iris = Datasets.load("iris")
    val p = ProblemGen.generate(iris, 0.3, 0.3, seed = 21)
    val sDf = ProblemGen.toDf(spark, p.inst, p.inst.source)
    val tDf = ProblemGen.toDf(spark, p.inst, p.inst.target)
    val truth = p.reference.alignment.map { case (a, b) => (a.toLong, b.toLong) }.toSet
    val acc = SnapshotDiff.keyAlignmentAccuracy(sDf, tDf, Seq("pk"), truth)
    assert(acc < 0.1, s"keyed accuracy $acc")
  }

  test("the keyed baseline pairs multi-column keys part by part, never on a null part") {
    val spark0 = spark
    import spark0.implicits._
    // Joined with a U+0001 separator, ("a\u0001", "b") and ("a", "\u0001b")
    // would be one key, and ("4", null) would be "4" on both sides.
    val s = Seq((0L, "a\u0001", "b"), (1L, "a", "\u0001b"), (2L, "4", null)).toDF("__row", "k1", "k2")
    val t = Seq((0L, "a", "\u0001b"), (1L, "a\u0001", "b"), (2L, "4", null)).toDF("__row", "k1", "k2")
    val keys = Seq("k1", "k2")
    assert(SnapshotDiff.keyAlignmentAccuracy(s, t, keys, Set((0L, 1L), (1L, 0L))) == 1.0)
    assert(SnapshotDiff.keyAlignmentAccuracy(s, t, keys, Set((2L, 2L))) == 0.0)
    assert(SnapshotDiff.diff(s, t, keys).deleted.select("__row").as[Long].collect().toSeq == Seq(2L))
  }

  test("the keyed baseline is perfect when keys are stable") {
    val acc = SnapshotDiff.keyAlignmentAccuracy(
      s, s, Seq("id"), Set((0L, 0L), (1L, 1L), (2L, 2L)))
    assert(acc == 1.0)
  }
}
