package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.core.blocking.LocalBlocking
import repro.core.functions.Funcs._
import repro.core.model.{Costs, LocalInstance, RunningExample}
import repro.core.search.{Affidavit, AffidavitConfig, Slot, State}

class CostsSpec extends AnyFunSuite {

  private val inst = RunningExample.instance

  test("paper: c(E1) = 77 at α = 0.5") {
    assert(Costs.explanationCost(inst, RunningExample.e1, 0.5) == 77.0)
  }

  test("paper: L(T^E1+) = 21 and L(F^E1) = 56") {
    assert(inst.d * RunningExample.e1.inserted.size == 21)
    assert(RunningExample.e1.lFuncs == 56)
  }

  test("paper: the trivial explanation costs |A|·|T| = 112") {
    assert(Costs.trivialCost(inst, 0.5) == 112.0)
  }

  test("α = 1 prices only unexplained target records") {
    assert(Costs.explanationCost(inst, RunningExample.e1, 1.0) == 2 * 21.0)
  }

  test("α = 0 prices only the functions") {
    assert(Costs.explanationCost(inst, RunningExample.e1, 0.0) == 2 * 56.0)
  }

  test("state cost of an end state equals its explanation cost (coherence)") {
    val endState = State(RunningExample.e1.funcs.map(f => Slot.Decided(f): Slot))()
    val blocking = LocalBlocking.block(inst, endState.decided)
    val stateCost =
      Costs.stateCost(inst.d, endState.cf, blocking.ct, blocking.cs, inst.delta, 0.5)
    val e = Affidavit.toExplanation(inst, endState)
    assert(stateCost == Costs.explanationCost(inst, e, 0.5))
    assert(stateCost == 77.0)
    // The paper's literal Def. 4.6 would count records unscaled: 56 + 3.
    assert(Costs.stateCost(inst.d, endState.cf, blocking.ct, blocking.cs, inst.delta, 0.5,
      scaleRecords = false) == 59.0)
  }

  test("finalizeMaps returns an end state whose cost equals its explanation's") {
    val aff = new Affidavit(inst, AffidavitConfig(seed = 1))
    val partials = Seq(
      State.blank(inst.d),
      State.blank(inst.d).assign(3, Identity).assign(6, Identity),
      State.blank(inst.d).assign(2, PrefixReplace("9999123", "2018070")).assign(4, Div(BigDecimal(1000)))
        .assign(5, Const("k $")))
    for (h <- partials; seed <- 1 to 3) {
      val end = aff.finalizeMaps(h, h.undecided, new Random(seed))
      assert(end.isEnd, h.signature)
      val e = Affidavit.toExplanation(inst, end)
      assert(e.isValidFor(inst), end.signature)
      assert(aff.stateCost(end) == Costs.explanationCost(inst, e, 0.5), end.signature)
    }
  }

  test("state cost lower-bounds via cs − Δ when deletions dominate") {
    // 3 sources, 1 target, Δ = 2; one block where all collide: cs = 2, ct = 0.
    val toy = LocalInstance(
      Vector("a"),
      Array(Array("x"), Array("y"), Array("z")),
      Array(Array("x")))
    val blocking = LocalBlocking.block(toy, Array((0, Identity)))
    // cs = 2 (y and z unmatched), Δ = 2 → cs − Δ = 0; ct = 0.
    assert(Costs.stateCost(1, 0, blocking.ct, blocking.cs, toy.delta, 0.5) == 0.0)
  }

  test("partial state costs are a lower bound of reachable end states on I1") {
    val partial = State.blank(inst.d).assign(3, Identity).assign(6, Identity)
    val blocking = LocalBlocking.block(inst, partial.decided)
    val partialCost =
      Costs.stateCost(inst.d, partial.cf, blocking.ct, blocking.cs, inst.delta, 0.5)
    assert(partialCost <= 77.0)
  }

  test("Corollary 4.5: |T+| = |S−| − Δ for valid explanations") {
    val e = RunningExample.e1
    assert(e.inserted.size == e.deleted.size - inst.delta)
  }
}
