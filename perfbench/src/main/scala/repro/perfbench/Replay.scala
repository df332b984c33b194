package repro.perfbench

import scala.collection.mutable
import scala.util.Random
import scala.util.hashing.MurmurHash3

import repro.core.blocking.{BlockingResult, LocalBlocking}
import repro.core.functions.Funcs
import repro.core.model.{AttrFunc, Costs, Explanation, LocalInstance}
import repro.core.search._

/** What a replayed search did: the same outcome fields as
  * `AffidavitResult`, plus the counts the per-layer metrics need.
  *
  * @param endState the polled end state and its queue cost; `None` when
  *                 the search fell back to the trivial explanation
  */
final case class ReplayResult(
    explanation: Explanation,
    cost: Double,
    polls: Int,
    statesEvaluated: Int,
    endState: Option[(State, Double)],
    candidates: Long,
    kept: Long,
    offers: Long,
    admitted: Long,
    maxMixedRecords: Int,
)

/** Algorithm 1 replayed through the public calls of `repro.core.search`
  * and `repro.core.blocking`, with a span around each call.
  *
  * The loop mirrors `Affidavit.run` and `Affidavit#extensions` step by
  * step: each extension seeds its `Random` from the state signature as the
  * search does and consumes it in the same order (alignment, induction,
  * finalize), so a replay must reproduce the untraced run exactly. The
  * benchmark checks that it does; when the search internals change, the
  * replay is what breaks, never the untraced end-to-end numbers.
  */
final class Replay(inst: LocalInstance, cfg: AffidavitConfig, tr: Tracer) {

  private val aff = new Affidavit(inst, cfg)
  private val queue = new LevelQueue(cfg.queueWidth)
  private var evaluated = 0
  private var candidates = 0L
  private var kept = 0L
  private var offers = 0L
  private var admitted = 0L
  private var maxMixed = 0

  private def offer(h: State, c: Double): Unit = {
    offers += 1
    if (tr.span("queue.offer")(queue.offer(h, c))) admitted += 1
  }

  private def stateCost(h: State): Double = {
    evaluated += 1
    tr.span("search.state_cost")(aff.stateCost(h))
  }

  private def refinedCost(h: State, b: BlockingResult, attr: Int, f: AttrFunc): Double = {
    evaluated += 1
    tr.span("search.refined_cost")(aff.refinedCost(h, b, attr, f))
  }

  private def block(h: State): BlockingResult = {
    val b = tr.span("blocking.block")(LocalBlocking.block(inst, h.decided))
    b.mixed.foreach(m => maxMixed = math.max(maxMixed, m.src.length + m.tgt.length))
    b
  }

  def run(init: InitStrategy): ReplayResult = {
    tr.span("search.start_states")(aff.startStates(init)).foreach(h => offer(h, stateCost(h)))

    var polls = 0
    var end: Option[(State, Double)] = None
    while (queue.nonEmpty && end.isEmpty && polls < cfg.maxPolls) {
      val (h, c) = tr.span("queue.poll")(queue.poll())
      polls += 1
      if (h.isEnd) end = Some((h, c))
      else extensions(h).foreach { case (e, ec) => offer(e, ec) }
    }

    val e = end match {
      case Some((h, _)) => tr.span("search.to_explanation")(Affidavit.toExplanation(inst, h))
      case None =>
        Explanation(
          Vector.fill(inst.d)(Funcs.Identity),
          Vector.empty,
          inst.source.indices.toVector,
          inst.target.indices.toVector)
    }
    ReplayResult(
      e, Costs.explanationCost(inst, e, cfg.alpha), polls, evaluated, end,
      candidates, kept, offers, admitted, maxMixed)
  }

  private def extensions(h: State): Seq[(State, Double)] = tr.span("search.extensions") {
    val blocking = block(h)
    val rnd = new Random(cfg.seed ^ MurmurHash3.stringHash(h.signature).toLong)

    val ordered = h.undecided
      .map(a => (a, tr.span("blocking.indeterminacy")(LocalBlocking.indeterminacy(inst, blocking, a))))
      .sortBy { case (a, ind) => (ind, a) }
      .map(_._1)

    val alignment = tr.span("sampling.alignment")(Sampling.randomAlignment(blocking, rnd))

    val ext = mutable.ArrayBuffer.empty[(State, Double)]
    val mapAttrs = mutable.ArrayBuffer.empty[Int]
    var remaining = ordered
    var batch = math.min(cfg.beta, remaining.size)
    while (ext.isEmpty && remaining.nonEmpty) {
      val (now, later) = remaining.splitAt(batch)
      remaining = later
      batch = 1
      for (a <- now) {
        val g = tr.span("sampling.greedy_map")(Sampling.greedyMap(inst, alignment, a))
        val cg = refinedCost(h, blocking, a, g)
        val cands = tr.span("induction.induce")(Induction.induceCandidates(inst, blocking, a, cfg, rnd))
        candidates += cands.size
        var keptAny = false
        for (f <- cands) {
          val cf = refinedCost(h, blocking, a, f)
          if (cf < cg) { ext += ((h.assign(a, f), cf)); keptAny = true; kept += 1 }
        }
        if (!keptAny) mapAttrs += a
      }
    }

    if (ext.isEmpty) {
      val end = tr.span("search.finalize")(aff.finalizeMaps(h, mapAttrs.toVector, rnd))
      Seq((end, stateCost(end)))
    } else ext.toSeq
  }
}

object Replay {
  def run(inst: LocalInstance, cfg: AffidavitConfig, init: InitStrategy, tr: Tracer): ReplayResult =
    new Replay(inst, cfg, tr).run(init)
}
