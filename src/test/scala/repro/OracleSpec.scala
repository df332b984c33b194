package repro

class OracleSpec extends SparkSpec {

  test("a Spark null is not equal to a DuckDB '∅'") {
    val df = spark.sql("SELECT CAST(NULL AS STRING) AS x")
    assertThrows[IllegalArgumentException](Oracle.assertEquivalent(df, "SELECT '∅' AS x"))
    Oracle.assertEquivalent(df, "SELECT CAST(NULL AS VARCHAR) AS x")
  }
}
