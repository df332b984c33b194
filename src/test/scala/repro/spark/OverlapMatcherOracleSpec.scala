package repro.spark

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

import repro.SparkSpec
import repro.core.model.{LocalInstance, RunningExample}
import repro.gen.{Datasets, ProblemGen}
import repro.spark.OverlapMatcher.OverlapResult

/** The `H^s` matcher, on DataFrames and on a `LocalInstance`'s encoding,
  * against a plain oracle of the same semantics over `Array[Array[String]]`.
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

  /** Both entry points, on DataFrames and on the instance's encoding. */
  private def check(inst: LocalInstance, maxBlock: Long): Unit = {
    val want = oracle(inst.source, inst.target, inst.d, maxBlock)
    val got = OverlapMatcher.compute(
      ProblemGen.toDf(spark, inst, inst.source), ProblemGen.toDf(spark, inst, inst.target), inst.attrs, maxBlock)
    assert(got == want, s"DataFrames, maxBlock=$maxBlock")
    assert(OverlapMatcher.compute(inst.encoded, maxBlock) == want, s"encoded, maxBlock=$maxBlock")
  }

  private def schema(attrs: Seq[String]) = StructType(
    StructField("__row", LongType, nullable = false) +: attrs.map(StructField(_, StringType, nullable = true)))

  private def sparkRows(rows: Seq[(Long, Array[String])]): Seq[Row] =
    rows.map { case (rid, r) => Row.fromSeq(rid +: r.toSeq) }

  /** A snapshot whose records carry the given row ids, as a local relation. */
  private def localDf(attrs: Seq[String], rows: Seq[(Long, Array[String])]): DataFrame =
    spark.createDataFrame(sparkRows(rows).asJava, schema(attrs))

  /** The same snapshot as a DataFrame over an RDD of `slices` partitions. */
  private def rddDf(attrs: Seq[String], rows: Seq[(Long, Array[String])], slices: Int): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(sparkRows(rows), slices), schema(attrs))

  /** Each record of `side` with the row id `ids` gives it, in a shuffled order. */
  private def withIds(side: Array[Array[String]], ids: Seq[Long], rnd: Random): Seq[(Long, Array[String])] =
    rnd.shuffle(ids.zip(side.toSeq))

  test("empty source, empty target and both empty: no pairs, as the oracle says") {
    val rows = RunningExample.instance.source
    val none = Array.empty[Array[String]]
    for ((s, t) <- Seq((none, rows), (rows, none), (none, none))) {
      val inst = LocalInstance(RunningExample.instance.attrs, s, t)
      check(inst, 100000L)
      assert(oracle(s, t, inst.d, 100000L) == OverlapResult(Set.empty, 0, 0L))
    }
  }

  test("a single attribute: the matcher agrees with the oracle") {
    val rnd = new Random(5)
    for (_ <- 1 to 4) {
      val s = Array.fill(1 + rnd.nextInt(10))(Array(rnd.nextInt(4).toString))
      val t = Array.fill(1 + rnd.nextInt(10))(Array(rnd.nextInt(4).toString))
      for (maxBlock <- Seq(1L, 6L, 100000L)) check(LocalInstance(Vector("x"), s, t), maxBlock)
    }
  }

  test("duplicate source and target rows: the matcher agrees with the oracle") {
    val a = Array("a", "b", "c")
    val b = Array("a", "x", "c")
    val c = Array("y", "b", "z")
    val inst = LocalInstance(Vector("p", "q", "r"), Array(a, a, b, a), Array(b, b, c, a, a, c))
    for (maxBlock <- Seq(2L, 6L, 100000L)) check(inst, maxBlock)
  }

  test("non-ASCII values and values holding U+0001: the matcher agrees with the oracle") {
    val rnd = new Random(23)
    val values = Array("é", "日本", "a\u0001b", "a", "\u0001", "b\u0001", null, "Ａ")
    def row() = Array.fill(3)(values(rnd.nextInt(values.length)))
    for (_ <- 1 to 6) {
      val inst = LocalInstance(Vector("x", "y", "z"), Array.fill(1 + rnd.nextInt(9))(row()), Array.fill(1 + rnd.nextInt(9))(row()))
      for (maxBlock <- Seq(3L, 100000L)) check(inst, maxBlock)
    }
  }

  test("gapped, out-of-order row ids: ties go to the smallest row id, not the first position") {
    // One source (a, b); two targets that tie with score 1 but match on
    // different attributes. The first in position order has row id 9, the
    // other row id 2, so the best pair matches on attribute 1.
    val attrs = Vector("x", "y")
    val s = localDf(attrs, Seq(40L -> Array("a", "b")))
    val t = localDf(attrs, Seq(9L -> Array("a", "u"), 2L -> Array("v", "b")))
    assert(OverlapMatcher.compute(s, t, attrs) == OverlapResult(Set(1), 1, 1L))

    val rnd = new Random(31)
    val values = Array("a", "b", "c")
    def row() = Array.fill(3)(values(rnd.nextInt(values.length)))
    for (_ <- 1 to 8) {
      val source = Array.fill(1 + rnd.nextInt(8))(row())
      val target = Array.fill(1 + rnd.nextInt(8))(row())
      // Distinct ids with gaps, ascending in the rows given to the oracle.
      def ids(n: Int) = (1 to n).scanLeft(rnd.nextInt(5).toLong)((id, _) => id + 1 + rnd.nextInt(7)).take(n)
      val sDf = localDf(attrs :+ "z", withIds(source, ids(source.length), rnd))
      val tDf = localDf(attrs :+ "z", withIds(target, ids(target.length), rnd))
      for (maxBlock <- Seq(2L, 100000L))
        assert(OverlapMatcher.compute(sDf, tDf, attrs :+ "z", maxBlock) == oracle(source, target, 3, maxBlock))
    }
  }

  test("a DataFrame over an RDD gives the local relation's result") {
    val ds = Datasets.load("abalone")
    val inst = ProblemGen.generate(ds.copy(rows = ds.rows.take(300)), 0.3, 0.3, 4L).inst
    val rnd = new Random(3)
    def rdd(side: Array[Array[String]]) = rddDf(inst.attrs, withIds(side, side.indices.map(_.toLong), rnd), 3)
    val got = OverlapMatcher.compute(rdd(inst.source), rdd(inst.target), inst.attrs)
    val local = OverlapMatcher.compute(
      ProblemGen.toDf(spark, inst, inst.source), ProblemGen.toDf(spark, inst, inst.target), inst.attrs)
    assert(got == local)
    assert(got == oracle(inst.source, inst.target, inst.d, 100000L))
  }

  test("dropped values do not count towards the early stop: the best target is found late") {
    // A1 and A2 are held by three sources and three targets, so with
    // maxBlock = 4 they are dropped. Source 0 first finds target 0 through
    // B (score 3), then its best target 1 through C (score 4). Had the two
    // dropped values counted as probed, a target found after B could score
    // at most 5 - 3 = 2, and the source would stop at target 0.
    val source = Array(
      Array("A1", "A2", "B", "C", "D"),
      Array("A1", "A2", "f1", "g1", "h1"),
      Array("A1", "A2", "f2", "g2", "h2"))
    val target = Array(
      Array("A1", "A2", "B", "x", "y"),
      Array("A1", "A2", "z", "C", "D"),
      Array("A1", "A2", "k", "l", "m"))
    val inst = LocalInstance(Vector("p1", "p2", "q", "r", "s"), source, target)
    assert(oracle(source, target, 5, 4L) == OverlapResult(Set(0, 1, 3, 4), 4, 1L))
    check(inst, 4L)
  }

  test("running example: the matcher agrees with the oracle for every block bound") {
    for (maxBlock <- Seq(0L, 1L, 4L, 100000L)) check(RunningExample.instance, maxBlock)
  }

  test("generated bridges and abalone instances: the matcher agrees with the oracle") {
    for ((name, rows) <- Seq("bridges" -> 108, "abalone" -> 400)) {
      val ds = Datasets.load(name)
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
