package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.model.{LocalInstance, RunningExample}
import repro.core.search.{Affidavit, AffidavitConfig, Induction, InitStrategy}
import repro.gen.{Dataset, Datasets, ProblemGen}

/** Pinned outcomes of whole searches (`H^id`, and one `H^s`-style β = 1
  * search from a fixed id-attribute set): poll and state counts, cost,
  * every function's `describe` and the deleted and inserted records. A
  * change meant to keep the search's behaviour (a speed-up) must leave all
  * of them as they are; any change to the search's choices or to the order
  * it draws random numbers in shows here.
  */
class SearchGoldenSpec extends AnyFunSuite {

  private def check(
      inst: LocalInstance,
      seed: Long,
      polls: Int,
      states: Int,
      cost: Double,
      funcs: String,
      deleted: Seq[Int],
      inserted: Seq[Int],
      hs: Option[Set[Int]] = None,
  ): Unit = {
    val res = hs match {
      case None          => Affidavit.run(inst, AffidavitConfig.hidConfig(seed), InitStrategy.Id)
      case Some(idAttrs) => Affidavit.run(inst, AffidavitConfig.hsConfig(seed), InitStrategy.Overlap(idAttrs))
    }
    assert(res.polls == polls)
    assert(res.statesEvaluated == states)
    assert(res.cost == cost)
    assert(res.explanation.funcs.map(_.describe).mkString("|") == funcs)
    assert(res.explanation.deleted.sorted == deleted)
    assert(res.explanation.inserted.sorted == inserted)
  }

  /** The first `rows` rows of a dataset, made an instance at η = τ = `eta`. */
  private def generated(name: String, rows: Int, eta: Double, seed: Long): LocalInstance = {
    val ds = Datasets.load(name)
    ProblemGen.generate(Dataset(ds.name, ds.attrs, ds.rows.take(rows)), eta, eta, seed).inst
  }

  test("running example, seed 7") {
    check(
      RunningExample.instance, seed = 7, polls = 26, states = 173, cost = 77.0,
      funcs = "map(S01->T07,S02->T02,S03->T06,S05->T04,\u2026(13 entries))" +
        "|map(0000->0006,0001->0001,0002->0005,0004->0003,\u2026(13 entries))" +
        "|prefixReplace(9999123->2018070)|id|mul(0.001)|backMask(k $)|id",
      deleted = Seq(3, 9, 13, 15),
      inserted = Seq(0, 4, 15))
  }

  test("chess, 200 rows, η = τ = 0.3, seed 3") {
    check(
      generated("chess", 200, 0.3, 3), seed = 3, polls = 20, states = 123, cost = 585.0,
      funcs = "upper|id|id|id|id|id|prefix(J73)|map(1->105,100->118,103->84,104->102,\u2026(108 entries))",
      deleted = 108 to 153,
      inserted = 108 to 153)
  }

  test("letter, 150 rows, η = τ = 0.3, seed 4") {
    check(
      generated("letter", 150, 0.3, 4), seed = 4, polls = 29, states = 233, cost = 842.0,
      funcs = "id|mul(2)|mul(0.01)|mul(0.001)|id|map(1->2,10->9,11->7,12->15,\u2026(15 entries))" +
        "|id|id|id|id|id|map(0->6,1->2,10->4,11->3,\u2026(16 entries))|id|id|id|id|add(10)" +
        "|map(1->53,10->112,100->64,102->106,\u2026(82 entries))",
      deleted = 82 to 115,
      inserted = 82 to 115)
  }

  test("flight-1k, 120 rows, η = τ = 0.7, seed 6") {
    check(
      generated("flight-1k", 120, 0.7, 6), seed = 6, polls = 116, states = 1229, cost = 4309.0,
      funcs = Seq(
        "const(A0002)|const(B0149)|suffix(M88)|mul(0.1)|mul(0.125)|const(alpha_5)|const(G0143)|id|id",
        "prefixReplace(a->C16)|mul(20)|suffix(E39)|suffixReplace(149->070)|add(-500)|mul(1000)",
        "const(20100501)|suffixReplace(727->308)|const(20100420)|suffixReplace(422->215)|id",
        "map(127->75,175->322,188->213,196->277,\u2026(16 entries))|mul(0.2)|id|id|id|mul(0.05)|id",
        "mul(0.001)|upper|prefixReplace(alph->bet)|const(E0004)|add(25)|mul(100)|add(1)",
        "map(alpha_34->alpha_34,east_34->zeta_34,kappa_34->beta_34,mu_34->psi_34,\u2026(13 entries))",
        "prefixReplace(e->C93)|id|id|id|mul(10)|id|const(P0448)|upper|const(45)|mul(0.2)",
        "frontMask(U7)|prefix(U11)|id|id|upper|const(1.7)|add(-2)|const(epsilon_52)|prefix(Z60)",
        "map(104->69,113->53,114->140,130->60,\u2026(14 entries))|prefixReplace(e->M16)|id",
        "prefixReplace(F->F93)|const(eta_58)|upper|id|id|prefix(T36)|prefixReplace(p->I41)",
        "frontMask(N4)|add(-100)|const(epsilon_66)|const(theta_67)|id|id|add(-2)",
        "map(alpha_71->zeta_71,beta_71->gamma_71,delta_71->alpha_71,gamma_71->beta_71,\u2026(5 entries))",
        "frontMask(Y1)|id|map(11->47,19->63,2->43,22->52,\u2026(16 entries))",
      ).mkString("|"),
      deleted = Seq(1, 4, 8, 9, 12, 20) ++ (22 to 70),
      inserted = Seq(1, 4, 8, 9, 12, 20) ++ (22 to 70))
  }

  test("a mixed block with more than MaxSrcValuesPerExample distinct source values, seed 1") {
    // Every record shares `grp`, so the start state {grp ↦ id} has one mixed
    // block, and each example on `name` there tries 4096 of its 8200
    // distinct values, drawn from `rnd`. Only every tenth target holds a
    // structured value (`u<i>-x`); whether `suffix(-x)` reaches the
    // significance threshold depends on which values were drawn.
    val n = 8200
    val src = Array.tabulate(n)(i => Array("g", s"u$i"))
    val name = (i: Int) => if (i % 10 == 0) s"u$i-x" else s"${i * 7919 % 10007}#"
    val tgt = Array.tabulate(n)(i => Array("g", name(i))).drop(60) ++ Array.tabulate(30)(i => Array("g", s"new$i"))
    assert(n > 2 * Induction.MaxSrcValuesPerExample)
    check(
      LocalInstance(Vector("grp", "name"), src, tgt), seed = 1, polls = 2, states = 5, cost = 14713.0,
      funcs = "id|suffix(-x)",
      deleted = (0 until n).filterNot(i => i % 10 == 0 && i >= 60),
      inserted = (0 until n - 60).filter(j => (j + 60) % 10 != 0) ++ (n - 60 until n - 30))
  }

  test("abalone, 300 rows, η = τ = 0.5, seed 2, β = 1 from id attributes {1, 2, 3}") {
    check(
      generated("abalone", 300, 0.5, 2), seed = 2, polls = 7, states = 13, cost = 1794.0,
      funcs = "backMask(M)|id|id|id|id|id|id|add(-11)|add(99)",
      deleted = (0 to 199).filter(_ != 72),
      inserted = (0 to 199).filter(_ != 72),
      hs = Some(Set(1, 2, 3)))
  }
}
