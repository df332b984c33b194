package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.core.blocking.{BlockingResult, LocalBlocking}
import repro.core.functions.Funcs
import repro.core.model.{AttrFunc, Costs, Explanation, RunningExample}
import repro.core.search._

/** The benchmark under `perfbench/` is a separate build that replays
  * Algorithm 1 through public calls of `repro.core.search` and
  * `repro.core.blocking` (`Replay.scala`). This spec makes those calls with
  * the argument types the replay passes, so a signature change breaks this
  * project's own test compile rather than only the benchmark's build.
  */
class ReplayCallsSpec extends AnyFunSuite {

  private val inst = RunningExample.instance
  private val cfg = AffidavitConfig.hidConfig(7L)

  test("the replay's calls, with the replay's argument types") {
    val aff = new Affidavit(inst, cfg)
    val queue = new LevelQueue(cfg.queueWidth)
    val starts: Seq[State] = aff.startStates(InitStrategy.Id)
    val admitted: Boolean = queue.offer(starts.head, aff.stateCost(starts.head))
    assert(admitted)
    val (polled, _) = queue.poll()
    assert(polled == starts.head)
    // Type and Org are unchanged in the running example: the examples of
    // its blocks expose Val's division.
    val h: State = State.blank(inst.d).assign(3, Funcs.Identity).assign(6, Funcs.Identity)
    val blocking: BlockingResult = LocalBlocking.block(inst, h.decided)
    assert(blocking.mixed.nonEmpty)
    // The replay reads each mixed block's size as its `blocking.max_mixed_records`.
    var maxMixed = 0
    blocking.mixed.foreach(m => maxMixed = math.max(maxMixed, m.src.length + m.tgt.length))
    assert(maxMixed > 0)
    val rnd: Random = new Random(cfg.seed)

    val indeterminacy: Int = LocalBlocking.indeterminacy(inst, blocking, 4)
    assert(indeterminacy >= 1)
    val alignment: Array[(Int, Int)] = Sampling.randomAlignment(blocking, rnd)
    val map: Funcs.ValueMap = Sampling.greedyMap(inst, alignment, 4)
    val greedyCost: Double = aff.refinedCost(h, blocking, 4, map)
    val candidates: List[AttrFunc] = Induction.induceCandidates(inst, blocking, 4, cfg, rnd)
    assert(candidates.nonEmpty)
    for (f <- candidates) {
      val cost: Double = aff.refinedCost(h, blocking, 4, f)
      assert(cost == aff.stateCost(h.assign(4, f)))
    }
    assert(greedyCost == aff.stateCost(h.assign(4, map)))

    val end: State = aff.finalizeMaps(h, h.undecided, rnd)
    assert(end.isEnd)
    val e: Explanation = Affidavit.toExplanation(inst, end)
    assert(e.isValidFor(inst))
    assert(Costs.explanationCost(inst, e, cfg.alpha) == aff.stateCost(end))
  }

  test("induction returns the same candidates from Random and from LcgRandom of one seed") {
    val partial = Array((3, Funcs.Identity: AttrFunc), (6, Funcs.Identity: AttrFunc))
    for (decided <- Seq(Array.empty[(Int, AttrFunc)], partial.take(1), partial)) {
      val blocking = LocalBlocking.block(inst, decided)
      for (seed <- Seq(1L, 3L, -5L, 1L << 40); attr <- 0 until inst.d) {
        val plain = Induction.induceCandidates(inst, blocking, attr, cfg, new Random(seed))
        val lcg = Induction.induceCandidates(inst, blocking, attr, cfg, new Random(new LcgRandom(seed)))
        assert(lcg == plain, s"seed $seed attribute $attr")
      }
    }
  }
}
