package repro.gen

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.model.LocalInstance
import repro.gen.AttrSpec._

class SynthTableSpec extends SparkSpec {

  private val specs = Vector(
    Cat("color", Seq("red", "green", "blue")),
    IntRange("size", 10, 5),
    Dec("weight", 1.0, 0.5, 4, 1),
    Code("code", "C", 7, 3),
    DateCol("day", "2020-01-06", 10),
    SkewInt("gain", 0, 80, 100, 50),
  )

  private def column(rows: Int, seed: Long, attr: String): Array[String] = {
    val a = specs.indexWhere(_.name == attr)
    SynthTable.generate(rows, specs, seed).map(_(a))
  }

  /** The generated rows as a DataFrame, for the DuckDB oracle cases. */
  private def df(rows: Int, seed: Long) = {
    val table = SynthTable.generate(rows, specs, seed)
    ProblemGen.toDf(spark, LocalInstance(specs.map(_.name), table, Array.empty), table)
  }

  test("generation is deterministic in (rows, specs, seed)") {
    val a = SynthTable.generate(500, specs, 42)
    val b = SynthTable.generate(500, specs, 42)
    assert(a.map(_.toSeq).toSeq == b.map(_.toSeq).toSeq)
  }

  test("different seeds produce different content") {
    assert(column(500, 1, "color").toSeq != column(500, 2, "color").toSeq)
  }

  test("categorical values come from the configured list") {
    assert(column(300, 1, "color").toSet.subsetOf(Set("red", "green", "blue")))
  }

  test("integer ranges respect lo/domain") {
    assert(column(300, 1, "size").map(_.toInt).forall(v => v >= 10 && v <= 14))
  }

  test("decimals render with the configured scale") {
    val vals = column(100, 1, "weight")
    assert(vals.forall(_.matches("""\d+\.\d""")))
    assert(vals.toSet.subsetOf(Set("1.0", "1.5", "2.0", "2.5")))
  }

  test("codes are zero-padded with the prefix") {
    assert(column(100, 1, "code").forall(_.matches("C\\d{3}")))
  }

  test("dates render as yyyyMMdd within the window") {
    assert(column(100, 1, "day").forall(_.matches("202001\\d\\d")))
  }

  test("skewed integers are mostly the hot value with rare uniform tail") {
    val vals = column(2000, 1, "gain")
    val hotFrac = vals.count(_ == "0").toDouble / vals.length
    assert(hotFrac > 0.7 && hotFrac < 0.9, s"hot fraction $hotFrac")
    assert(vals.distinct.length > 10)
  }

  test("a code domain wider than its digits is rejected") {
    assert(SynthTable.domain(Code("c", "C", 100, 2)).last == "C99")
    intercept[IllegalArgumentException](Code("c", "C", 101, 2))
  }

  test("oracle: value histograms match DuckDB over the generated table") {
    val t = df(400, 3).select("color", "size")
    val grouped = t.groupBy("color").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      grouped,
      "SELECT color, count(*) AS n FROM t GROUP BY color",
      "t" -> t)
  }

  test("oracle: skew counts match DuckDB") {
    val t = df(400, 3).select("gain")
    val agg = t.agg(sum(when(col("gain") === "0", 1).otherwise(0)).as("hot"))
    Oracle.assertEquivalent(
      agg,
      "SELECT sum(CASE WHEN gain = '0' THEN 1 ELSE 0 END) AS hot FROM t",
      "t" -> t)
  }
}
