package repro.gen

import repro.SparkSpec
import repro.core.functions.Funcs
import repro.core.model.Costs

class ProblemGenSpec extends SparkSpec {

  private lazy val iris = Datasets.load("iris")

  test("snapshot sizes follow the η formula: |S| = |T| = N/(1+η)") {
    for (eta <- Seq(0.3, 0.5, 0.7)) {
      val p = ProblemGen.generate(iris, eta, 0.3, seed = 1)
      val expected = math.floor(150 * eta / (1 + eta)).toInt
      assert(p.inst.source.length == p.inst.target.length)
      assert(p.inst.source.length == 150 - expected)
      assert(p.reference.inserted.size == expected)
      assert(p.reference.deleted.size == expected)
    }
  }

  test("the artificial pk is appended and holds permuted running integers") {
    val p = ProblemGen.generate(iris, 0.3, 0.3, seed = 2)
    assert(p.inst.attrs.last == "pk")
    val m = p.inst.source.length
    val srcPks = p.inst.source.map(_.last.toInt).sorted
    val tgtPks = p.inst.target.map(_.last.toInt).sorted
    assert(srcPks.toSeq == (1 to m) && tgtPks.toSeq == (1 to m))
    // ... and the two permutations differ (alignment by pk would be wrong).
    val correctByPk = p.reference.alignment.count { case (s, t) =>
      p.inst.source(s).last == p.inst.target(t).last
    }
    assert(correctByPk < p.reference.coreSize / 2)
  }

  test("the reference explanation is valid for its instance") {
    for (seed <- 1L to 5L) {
      val p = ProblemGen.generate(iris, 0.5, 0.5, seed)
      assert(p.reference.isValidFor(p.inst), s"seed $seed")
    }
  }

  test("at least one natural attribute stays unchanged (rejection rule)") {
    for (seed <- 1L to 20L) {
      val p = ProblemGen.generate(iris, 0.7, 0.7, seed)
      val natural = p.reference.funcs.dropRight(1)
      assert(natural.exists(_.isIdentity), s"seed $seed")
    }
  }

  test("τ = 0 keeps every natural attribute unchanged") {
    val p = ProblemGen.generate(iris, 0.3, 0.0, seed = 3)
    assert(p.reference.funcs.dropRight(1).forall(_.isIdentity))
  }

  test("higher τ transforms more attributes on average") {
    def transformed(tau: Double): Int =
      (1L to 10L).map { s =>
        ProblemGen.generate(iris, 0.3, tau, s).reference.funcs.dropRight(1)
          .count(!_.isIdentity)
      }.sum
    assert(transformed(0.7) > transformed(0.2))
  }

  test("target noise is transformed like the core (same data format)") {
    val p = ProblemGen.generate(iris, 0.5, 0.5, seed = 4)
    // Reconstruct: every inserted record must be producible by applying the
    // full applied functions to some dataset row.
    val images = iris.rows.map(r =>
      Vector.tabulate(iris.attrs.size)(a => p.appliedFuncs(a)(r(a)))).toSet
    for (t <- p.reference.inserted) {
      val rec = p.inst.target(t).dropRight(1).toVector
      assert(images.contains(rec))
    }
  }

  test("the reference pk function is a value mapping over the core") {
    val p = ProblemGen.generate(iris, 0.3, 0.3, seed = 5)
    p.reference.funcs.last match {
      case Funcs.ValueMap(m) => assert(m.size == p.reference.coreSize)
      case other             => fail(s"unexpected pk function: $other")
    }
  }

  test("reference value maps are restricted to core values (honest ψ)") {
    // Find a seed whose sampling used a value map on a natural attribute.
    val found = (1L to 40L).flatMap { s =>
      val p = ProblemGen.generate(iris, 0.5, 0.5, s)
      p.reference.funcs.dropRight(1).zipWithIndex.collectFirst {
        case (Funcs.ValueMap(m), a) => (p, m, a)
      }
    }
    assert(found.nonEmpty, "no sampling produced a value map in 40 seeds")
    val (p, m, a) = found.head
    val coreVals = p.reference.alignment.map { case (s, _) => p.inst.source(s)(a) }.toSet
    assert(m.keySet == coreVals)
  }

  test("generation is deterministic in the seed") {
    val a = ProblemGen.generate(iris, 0.3, 0.3, seed = 9)
    val b = ProblemGen.generate(iris, 0.3, 0.3, seed = 9)
    assert(a.inst.source.map(_.toSeq).toSeq == b.inst.source.map(_.toSeq).toSeq)
    assert(a.inst.target.map(_.toSeq).toSeq == b.inst.target.map(_.toSeq).toSeq)
    assert(a.reference.funcs.map(_.describe) == b.reference.funcs.map(_.describe))
  }

  test("reference cost is cheaper than the trivial explanation at moderate noise") {
    val p = ProblemGen.generate(iris, 0.3, 0.3, seed = 10)
    assert(
      Costs.explanationCost(p.inst, p.reference, 0.5) < Costs.trivialCost(p.inst, 0.5))
  }

  test("sampled functions fit the attribute domain") {
    // Numeric attributes never receive string functions and vice versa.
    for (seed <- 1L to 10L) {
      val p = ProblemGen.generate(iris, 0.7, 0.7, seed)
      for ((f, a) <- p.appliedFuncs.dropRight(1).zipWithIndex) {
        val numericAttr = a < 4 // iris: 4 decimal attributes + species
        f.describe match {
          case d if d.startsWith("add(") || d.startsWith("div(") || d.startsWith("mul(") =>
            assert(numericAttr, s"seed $seed: $d on ${iris.attrs(a)}")
          case d if d == "upper" || d.startsWith("prefix") || d.startsWith("suffix") ||
              d.startsWith("frontMask") =>
            assert(!numericAttr, s"seed $seed: $d on ${iris.attrs(a)}")
          case _ => // const / map / id fit anywhere
        }
      }
    }
  }

  test("toDf round-trips a snapshot with row indices") {
    val p = ProblemGen.generate(iris, 0.3, 0.3, seed = 11)
    val df = ProblemGen.toDf(spark, p.inst, p.inst.source)
    assert(df.count() == p.inst.source.length)
    val row0 = df.where(org.apache.spark.sql.functions.col("__row") === 0L).collect()(0)
    assert(row0.getString(1) == p.inst.source(0)(0))
  }
}
