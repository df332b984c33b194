package repro.spark

import scala.collection.mutable
import scala.util.Random

import repro.SparkSpec
import repro.core.model.{LocalInstance, RunningExample}
import repro.gen.ProblemGen
import repro.spark.OverlapMatcher.OverlapResult

/** The Spark `H^s` matcher against a plain driver-side oracle of the same
  * semantics over `Array[Array[String]]`.
  */
class OverlapMatcherOracleSpec extends SparkSpec {

  /** The matcher's definition, record by record: candidate pairs share a
    * value of some attribute whose source×target frequency product is at
    * most `maxBlock`; each pair scores its number of equal attributes; each
    * source keeps its best target (highest score, then smallest index); the
    * modal score (most frequent, then highest) is k', and the k' attributes
    * equal in the most best pairs (then smallest index) are the id
    * attributes. `null` is a value equal only to itself.
    */
  private def oracle(source: Array[Array[String]], target: Array[Array[String]], d: Int, maxBlock: Long): OverlapResult = {
    val candidates = mutable.Map.empty[Int, mutable.Set[Int]]
    for (a <- 0 until d) {
      val sBy = source.indices.groupBy(i => Option(source(i)(a)))
      val tBy = target.indices.groupBy(j => Option(target(j)(a)))
      for ((v, ss) <- sBy; ts <- tBy.get(v) if ss.size.toLong * ts.size <= maxBlock; i <- ss)
        candidates.getOrElseUpdate(i, mutable.Set.empty) ++= ts
    }
    def matches(i: Int, j: Int): Seq[Boolean] = (0 until d).map(a => source(i)(a) == target(j)(a))
    val best = candidates.toSeq.map { case (i, ts) =>
      matches(i, ts.maxBy(j => (matches(i, j).count(identity), -j)))
    }
    if (best.isEmpty) return OverlapResult(Set.empty, 0, 0L)
    val modal = best.groupBy(_.count(identity)).toSeq.maxBy { case (sc, ms) => (ms.length, sc) }._1
    val attrCounts = (0 until d).map(a => a -> best.count(_(a)))
    val idAttrs = attrCounts.sortBy { case (a, c) => (-c, a) }.take(math.max(1, modal)).map(_._1).toSet
    OverlapResult(idAttrs, modal, best.length.toLong)
  }

  private def check(inst: LocalInstance, maxBlock: Long): Unit = {
    val got = OverlapMatcher.compute(
      ProblemGen.toDf(spark, inst, inst.source), ProblemGen.toDf(spark, inst, inst.target), inst.attrs, maxBlock)
    assert(got == oracle(inst.source, inst.target, inst.d, maxBlock), s"maxBlock=$maxBlock")
  }

  test("running example: the matcher agrees with the oracle for every block bound") {
    for (maxBlock <- Seq(0L, 1L, 4L, 100000L)) check(RunningExample.instance, maxBlock)
  }

  test("generated bridges and abalone instances: the matcher agrees with the oracle") {
    for ((name, rows) <- Seq("bridges" -> 108, "abalone" -> 400)) {
      val ds = ProblemGen.collectDataset(spark, name)
      val cut = ds.copy(rows = ds.rows.take(rows))
      for (seed <- 1L to 2L) check(ProblemGen.generate(cut, 0.3, 0.3, seed).inst, 100000L)
    }
  }

  test("random tables with score ties and duplicate rows: the matcher agrees with the oracle") {
    val rnd = new Random(17)
    val values = Array("a", "b", "c", "1")
    def row() = Array.fill(3)(values(rnd.nextInt(values.length)))
    for (_ <- 1 to 8) {
      val s = Array.fill(1 + rnd.nextInt(8))(row())
      // Copies of source rows make duplicate rows and tied best targets.
      val t = rnd.shuffle(Array.fill(rnd.nextInt(8))(row()).toSeq ++ s.take(rnd.nextInt(s.length + 1)).flatMap(r => Seq(r, r))).toArray
      val inst = LocalInstance(Vector("x", "y", "z"), s, t)
      for (maxBlock <- Seq(2L, 100000L)) check(inst, maxBlock)
    }
  }
}
