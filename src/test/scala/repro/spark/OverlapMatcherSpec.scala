package repro.spark

import org.apache.spark.JobCounter

import repro.SparkSpec
import repro.core.model.{LocalInstance, RunningExample}
import repro.gen.ProblemGen

class OverlapMatcherSpec extends SparkSpec {

  private val inst = RunningExample.instance
  private lazy val sDf = ProblemGen.toDf(spark, inst, inst.source)
  private lazy val tDf = ProblemGen.toDf(spark, inst, inst.target)

  test("H^s on I1 selects unchanged attributes (Type/Org among them)") {
    val res = OverlapMatcher.compute(sDf, tDf, inst.attrs)
    assert(res.pairs > 0)
    // Type (index 3) and Org (index 6) are the unchanged attributes; Date
    // (index 2) is unchanged on most records. The changed Val/Unit must not
    // be chosen.
    assert(res.idAttrs.nonEmpty)
    assert(!res.idAttrs.contains(4), s"Val chosen: ${res.idAttrs}")
    assert(!res.idAttrs.contains(5), s"Unit chosen: ${res.idAttrs}")
    assert(res.idAttrs.subsetOf(Set(1, 2, 3, 6)), res.idAttrs.toString)
  }

  test("a tiny block-size threshold filters everything and falls back") {
    val res = OverlapMatcher.compute(sDf, tDf, inst.attrs, maxBlock = 0L)
    assert(res.idAttrs.isEmpty && res.pairs == 0)
  }

  test("identical snapshots choose all attributes via the modal score") {
    val s = ProblemGen.toDf(spark, inst, inst.source)
    val res = OverlapMatcher.compute(s, s, inst.attrs)
    // Every record matches itself on all 7 attributes; modal score = 7.
    assert(res.modalScore == 7)
    assert(res.idAttrs.size == 7)
  }

  test("the frequent-value filter ignores non-discriminating attributes") {
    // Unit is constant 'USD'/'k $' — no shared values at all; Org values are
    // shared but carry few pairs. The filter must not blow up pair counts.
    val res = OverlapMatcher.compute(sDf, tDf, inst.attrs, maxBlock = 4L)
    // With maxBlock = 4 only near-unique values (ID2, Date) generate pairs.
    assert(res.pairs <= inst.source.length)
  }

  test("best pair count never exceeds the source size") {
    val res = OverlapMatcher.compute(sDf, tDf, inst.attrs)
    assert(res.pairs <= inst.source.length)
  }

  private def computeOn(source: Array[Array[String]], target: Array[Array[String]]) = {
    val i = LocalInstance(Vector.tabulate(source.head.length)(a => s"a$a"), source, target)
    OverlapMatcher.compute(ProblemGen.toDf(spark, i, i.source), ProblemGen.toDf(spark, i, i.target), i.attrs)
  }

  test("null cells are a shared value: a table sharing only nulls finds pairs") {
    val res = computeOn(
      Array(Array(null, "a"), Array(null, "b")),
      Array(Array(null, "x"), Array(null, "y")))
    assert(res.pairs == 2)
    assert(res.modalScore == 1)
    assert(res.idAttrs == Set(0))
  }

  test("null cells score as equal to each other") {
    val res = computeOn(Array(Array(null, "k")), Array(Array(null, "k")))
    assert(res.pairs == 1)
    assert(res.modalScore == 2)
    assert(res.idAttrs == Set(0, 1))
  }

  test("null does not match the string \"null\"") {
    val res = computeOn(Array(Array(null, "a")), Array(Array("null", "b")))
    assert(res.pairs == 0 && res.idAttrs.isEmpty)
  }

  test("one compute call runs no Spark job") {
    // Both snapshots are local relations, collected without a job, and the
    // scoring runs on the driver.
    val (res, jobs) = JobCounter(spark.sparkContext)(OverlapMatcher.compute(sDf, tDf, inst.attrs))
    assert(res.pairs > 0)
    assert(jobs == 0, s"$jobs jobs")
  }
}
