package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.core.blocking.LocalBlocking
import repro.core.functions.Funcs._
import repro.core.model.{AttrFunc, LocalInstance, RunningExample}
import repro.core.search.{AffidavitConfig, Induction, Sampling}

class SamplingInductionSpec extends AnyFunSuite {

  private val inst = RunningExample.instance
  private val keyed = Array((0, Identity: AttrFunc)) // useless key: all distinct

  test("random alignment only pairs records of the same block") {
    val decided = Array((3, Identity: AttrFunc), (6, Identity: AttrFunc))
    val blocking = LocalBlocking.block(inst, decided)
    val pairs = Sampling.randomAlignment(blocking, new Random(1))
    assert(pairs.nonEmpty)
    for ((s, t) <- pairs) {
      assert(blocking.mixed.exists(b => b.src.contains(s) && b.tgt.contains(t)))
      assert(inst.source(s)(3) == inst.target(t)(3) && inst.source(s)(6) == inst.target(t)(6))
    }
  }

  test("random alignment pairs min(|src|,|tgt|) records per mixed block") {
    val decided = Array((3, Identity: AttrFunc))
    val blocking = LocalBlocking.block(inst, decided)
    val pairs = Sampling.randomAlignment(blocking, new Random(1))
    val expected = blocking.mixed.map(b => math.min(b.src.length, b.tgt.length)).sum
    assert(pairs.length == expected)
  }

  test("random alignment never reuses a record") {
    val blocking = LocalBlocking.block(inst, Array.empty[(Int, AttrFunc)])
    val pairs = Sampling.randomAlignment(blocking, new Random(2))
    assert(pairs.map(_._1).distinct.length == pairs.length)
    assert(pairs.map(_._2).distinct.length == pairs.length)
  }

  test("greedy map picks the highest co-occurrence target per source value") {
    val toy = LocalInstance(
      Vector("a"),
      Array(Array("x"), Array("x"), Array("x"), Array("y")),
      Array(Array("1"), Array("1"), Array("2"), Array("9")))
    val alignment = Array((0, 0), (1, 1), (2, 2), (3, 3))
    val g = Sampling.greedyMap(toy, alignment, 0)
    assert(g.map == Map("x" -> "1", "y" -> "9"))
    assert(g.psi == 4)
  }

  test("greedy map tie-break is deterministic") {
    val toy = LocalInstance(
      Vector("a"),
      Array(Array("x"), Array("x")),
      Array(Array("b"), Array("a")))
    val g = Sampling.greedyMap(toy, Array((0, 0), (1, 1)), 0)
    assert(g.map == Map("x" -> "a")) // lexicographic tie-break
  }

  test("induction finds the paper's division on Val") {
    // Block by Type+Org (both unchanged): the in-block examples expose /1000.
    val decided = Array((3, Identity: AttrFunc), (6, Identity: AttrFunc))
    val blocking = LocalBlocking.block(inst, decided)
    val cfg = AffidavitConfig(seed = 3)
    val cands = Induction.induceCandidates(inst, blocking, 4, cfg, new Random(3))
    assert(cands.exists(_.describe == "div(1000)"), cands.map(_.describe))
  }

  test("induction finds the constant for Unit") {
    val decided = Array((3, Identity: AttrFunc), (6, Identity: AttrFunc))
    val blocking = LocalBlocking.block(inst, decided)
    val cands =
      Induction.induceCandidates(inst, blocking, 5, AffidavitConfig(seed = 3), new Random(3))
    assert(cands.exists(_.describe == "const(k $)"), cands.map(_.describe))
  }

  test("induction ranks identity highly for unchanged attributes") {
    val decided = Array((5, Const("k $"): AttrFunc), (6, Identity: AttrFunc))
    val blocking = LocalBlocking.block(inst, decided)
    val cands =
      Induction.induceCandidates(inst, blocking, 3, AffidavitConfig(seed = 5), new Random(5))
    assert(cands.headOption.exists(_.isIdentity), cands.map(_.describe))
  }

  test("induction returns nothing without mixed blocks") {
    val toy = LocalInstance(Vector("a"), Array(Array("x")), Array(Array("y")))
    val blocking = LocalBlocking.block(toy, Array((0, Identity)))
    assert(blocking.mixed.isEmpty)
    assert(Induction
      .induceCandidates(toy, blocking, 0, AffidavitConfig(seed = 1), new Random(1))
      .isEmpty)
  }

  test("induction returns at most β candidates") {
    val decided = Array((3, Identity: AttrFunc))
    val blocking = LocalBlocking.block(inst, decided)
    for (beta <- 1 to 3) {
      val cands = Induction
        .induceCandidates(inst, blocking, 4, AffidavitConfig(beta = beta, seed = 1), new Random(1))
      assert(cands.size <= beta)
    }
  }

  test("sample sizes follow the binomial/Cochran derivations") {
    val cfg = AffidavitConfig(theta = 0.1, confidence = 0.95)
    // Smallest k with P(Binom(k, 0.1) ≥ 5) ≥ 0.95 — verify the bound holds
    // at k and fails at k − 1.
    val k = cfg.inductionSampleSize
    assert(AffidavitConfig.pAtLeast(k, 0.1, 5) >= 0.95)
    assert(AffidavitConfig.pAtLeast(k - 1, 0.1, 5) < 0.95)
    // Cochran with z=1.96, e=0.05, p=0.1: 139 samples.
    assert(cfg.rankingSampleSize == 139)
  }

  test("binomial tail helper matches closed forms") {
    assert(math.abs(AffidavitConfig.pAtLeast(1, 0.5, 1) - 0.5) < 1e-12)
    assert(math.abs(AffidavitConfig.pAtLeast(2, 0.5, 1) - 0.75) < 1e-12)
    assert(AffidavitConfig.pAtLeast(10, 0.3, 0) == 1.0)
  }
}
