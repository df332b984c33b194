package repro.core.search

import scala.collection.immutable.BitSet
import scala.collection.mutable
import scala.util.Random

import repro.core.blocking.{BlockingResult, LocalBlocking}
import repro.core.functions.Funcs
import repro.core.model.{AttrFunc, CodeMap, CodeTable, Costs, Explanation, LocalInstance, Marks}

/** Result of one Affidavit run. */
final case class AffidavitResult(
    explanation: Explanation,
    cost: Double,
    polls: Int,
    statesEvaluated: Int,
)

/** The heuristic best-first search of Algorithm 1 (§4).
  *
  * The search space are partial assignments of functions to attributes;
  * extending a state induces candidate functions for the most determined
  * undecided attributes from sampled in-block input-output examples and
  * keeps extensions that beat a greedy value map built from a random
  * block-respecting alignment. Attributes where the greedy map wins are
  * map-suited; when every undecided attribute is map-suited the state is
  * finalized by resolving the maps one at a time (§4.3).
  */
final class Affidavit(inst: LocalInstance, cfg: AffidavitConfig) {

  private var evaluated = 0

  // The candidate registry of this run (DESIGN.md §2): one function object
  // and one code table per candidate. It dies with the run, so every run
  // pays for its own.
  private val induced = new InducedCandidates(inst, cfg.metas)

  // Scratch of refinedCost and indeterminacy, kept for the run and grown on
  // demand; no call clears it. `pending` is all zeros between calls.
  private var pending = new Array[Int](0) // unmatched sources per code in the current block
  private var touched = new Array[Int](0) // codes with pending sources in the current block
  private val seen = new Marks

  /** Cost of a state per Def. 4.6 (DESIGN.md §3), counted in its parent's blocking if it has one. */
  def stateCost(h: State): Double = h.from match {
    case Some(State.Step(parent, attr, table)) => refinedCost(h.cf, parent, attr, table)
    case None =>
      evaluated += 1
      val blocking = LocalBlocking.block(inst, h.decided)
      Costs.stateCost(inst.d, h.cf, blocking.ct, blocking.cs, inst.delta, cfg.alpha, cfg.scaleRecordBound)
  }

  /** Φ_H of a state: one refinement of its parent's blocking for a state
    * the search derived, a full blocking otherwise.
    */
  private def blockingOf(h: State): BlockingResult = h.from match {
    case Some(State.Step(parent, attr, table)) => LocalBlocking.refine(inst, parent, attr, table)
    case None                                  => LocalBlocking.block(inst, h.decided)
  }

  /** Cost of `parent + (attr ↦ f)` computed by refining the parent's
    * blocking on the one new attribute — equivalent to a full re-blocking
    * (the refined partition equals blocking on decided ∪ {attr}) but over
    * the records of mixed blocks only, once. Inside a mixed block, the
    * sources and targets with one code form one child block; a source whose
    * output is absent from the dictionary matches no target and counts in
    * `cs` on its own.
    */
  def refinedCost(h: State, parentBlocking: BlockingResult, attr: Int, f: AttrFunc): Double =
    refinedCost(h.cf + f.psi, parentBlocking, attr, new CodeTable(inst.encoded(attr), f))

  /** [[refinedCost]] of the greedy value map (§4.3) that `alignment`
    * induces on `attr`, the bar a candidate function must beat.
    */
  def greedyMapCost(h: State, parentBlocking: BlockingResult, attr: Int, alignment: Array[(Int, Int)]): Double = {
    val g = Sampling.greedyCodes(inst.encoded(attr), alignment)
    refinedCost(h.cf + g.psi, parentBlocking, attr, g)
  }

  /** [[refinedCost]] of a child with c_f `cf` whose new function `fc` applies
    * to `attr`. The parent's `ct`/`cs` carry over, except that each mixed
    * block's own surplus gives way to its children's: within the block, a
    * target takes a pending source of its code if there is one and counts
    * in `ct` otherwise; the sources left pending count in `cs`.
    */
  private def refinedCost(cf: Int, parentBlocking: BlockingResult, attr: Int, fc: CodeMap): Double = {
    evaluated += 1
    val col = inst.encoded(attr)
    // Up to `col.size`, the code of outputs outside the dictionary.
    if (this.pending.length <= col.size) {
      this.pending = new Array[Int](col.size + 1)
      this.touched = new Array[Int](col.size + 1)
    }
    val pending = this.pending
    val touched = this.touched
    var ct = parentBlocking.ct
    var cs = parentBlocking.cs
    val src = parentBlocking.src
    val tgt = parentBlocking.tgt
    var b = 0
    while (b < parentBlocking.size) {
      val srcEnd = parentBlocking.srcStart(b + 1)
      val tgtEnd = parentBlocking.tgtStart(b + 1)
      // The block's surplus is replaced by its children's.
      val surplus = (srcEnd - parentBlocking.srcStart(b)) - (tgtEnd - parentBlocking.tgtStart(b))
      ct -= math.max(0, -surplus)
      cs -= math.max(0, surplus)
      var nTouched = 0
      var i = parentBlocking.srcStart(b)
      while (i < srcEnd) {
        val c = fc(col.src(src(i)))
        if (pending(c) == 0) { touched(nTouched) = c; nTouched += 1 }
        pending(c) += 1
        i += 1
      }
      var j = parentBlocking.tgtStart(b)
      while (j < tgtEnd) {
        val c = col.tgt(tgt(j))
        if (pending(c) > 0) pending(c) -= 1 else ct += 1
        j += 1
      }
      var k = 0
      while (k < nTouched) {
        val c = touched(k)
        cs += pending(c)
        pending(c) = 0
        k += 1
      }
      b += 1
    }
    Costs.stateCost(inst.d, cf, ct, cs, inst.delta, cfg.alpha, cfg.scaleRecordBound)
  }

  /** Init-Start-States for the configured strategy, derived from the blank
    * state so that each is priced by counting; `H^id`'s share its root.
    */
  def startStates(init: InitStrategy): Seq[State] = init match {
    case InitStrategy.Id =>
      val blank = State.blank(inst.d)
      val root = blockingOf(blank)
      (0 until inst.d).map(withId(blank, root, _))
    case InitStrategy.Overlap(idAttrs) if idAttrs.nonEmpty =>
      Seq(idAttrs.toSeq.sorted.foldLeft(State.blank(inst.d))((h, a) => withId(h, blockingOf(h), a)))
    case _ => Seq(State.blank(inst.d))
  }

  /** `h`, whose blocking is `blocking`, plus the identity on `attr`. */
  private def withId(h: State, blocking: BlockingResult, attr: Int): State =
    h.extend(blocking, attr, Funcs.Identity, new CodeTable(inst.encoded(attr), Funcs.Identity))

  def run(init: InitStrategy): AffidavitResult = {
    val queue = new LevelQueue(cfg.queueWidth)
    startStates(init).foreach(h => queue.offer(h, stateCost(h)))

    var polls = 0
    var end: Option[(State, Double)] = None
    while (queue.nonEmpty && end.isEmpty && polls < cfg.maxPolls) {
      val (h, c) = queue.poll()
      polls += 1
      if (h.isEnd) end = Some((h, c))
      else extensions(h).foreach { case (e, ec) => queue.offer(e, ec) }
    }

    end match {
      case Some((h, c)) =>
        val e = Affidavit.toExplanation(inst, h, blockingOf(h))
        AffidavitResult(e, Costs.explanationCost(inst, e, cfg.alpha), polls, evaluated)
      case None =>
        // Queue exhausted / poll budget hit: fall back to the trivial
        // explanation E∅, which is valid for every instance (§3.1).
        val e = Explanation(
          Vector.fill(inst.d)(Funcs.Identity),
          Vector.empty,
          inst.source.indices.toVector,
          inst.target.indices.toVector)
        AffidavitResult(e, Costs.explanationCost(inst, e, cfg.alpha), polls, evaluated)
    }
  }

  /** Extensions(H) of Algorithm 1, returned with their (exact) costs.
    * Candidate costs are computed by refining the parent blocking on the
    * one new attribute instead of re-blocking from scratch, and each kept
    * extension carries that blocking, so polling it costs one refinement.
    */
  def extensions(h: State): Seq[(State, Double)] = {
    val blocking = blockingOf(h)
    val rnd = new Random(new LcgRandom(cfg.seed ^ scala.util.hashing.MurmurHash3.stringHash(h.signature).toLong))

    // Order-By-Indeterminacy: most determined (fewest distinct in-block
    // source values) first.
    val ordered = h.undecided
      .map(a => (a, LocalBlocking.indeterminacy(inst, blocking, a, seen)))
      .sortBy { case (a, ind) => (ind, a) }
      .map(_._1)

    val alignment = Sampling.randomAlignment(blocking, rnd)

    val ext = mutable.ArrayBuffer.empty[(State, Double)]
    val mapAttrs = mutable.ArrayBuffer.empty[Int]
    var remaining = ordered
    var batch = math.min(cfg.beta, remaining.size)
    while (ext.isEmpty && remaining.nonEmpty) {
      val (now, later) = remaining.splitAt(batch)
      remaining = later
      batch = 1 // after the first β attributes, poll one at a time
      for (a <- now) {
        val cg = greedyMapCost(h, blocking, a, alignment)
        val candidates = Induction.induceCandidates(inst, blocking, a, cfg, rnd, induced)
        var keptAny = false
        for (c <- candidates) {
          val cf = refinedCost(h.cf + c.psi, blocking, a, c.table)
          if (cf < cg) { ext += ((h.extend(blocking, a, c.f, c.table), cf)); keptAny = true }
        }
        if (!keptAny) mapAttrs += a
      }
    }

    if (ext.isEmpty) {
      // Every undecided attribute is map-suited (□): finalize by resolving
      // the maps one after another, re-sampling the random alignment after
      // each replacement so the next map respects the previous assignment.
      val end = finalizeMaps(h, blocking, mapAttrs.toVector, rnd)
      Seq((end, stateCost(end)))
    } else ext.toSeq
  }

  /** Finalize: replace each □ with a greedy value mapping from a fresh
    * random alignment (§4.3). Returns an end state.
    */
  def finalizeMaps(h: State, mapAttrs: Vector[Int], rnd: Random): State =
    finalizeMaps(h, blockingOf(h), mapAttrs, rnd)

  /** [[finalizeMaps]] given `h`'s blocking. Each map is sampled from the
    * blocking of the state before it, and the state after it refines by the
    * map's codes; the last state's blocking is left to whoever polls it.
    */
  private def finalizeMaps(h: State, blocking: BlockingResult, mapAttrs: Vector[Int], rnd: Random): State =
    mapAttrs.foldLeft(h) { (cur, a) =>
      val b = if (cur eq h) blocking else blockingOf(cur)
      val g = Sampling.greedyCodes(inst.encoded(a), Sampling.randomAlignment(b, rnd))
      cur.extend(b, a, g.valueMap, g)
    }
}

object Affidavit {

  /** Convert an end state to a valid explanation (Proposition 3.6): block on
    * the full assignment; inside each mixed block the transformed sources
    * and the targets agree on every attribute, so pairing is arbitrary.
    * Every other source is deleted and every other target inserted, both
    * ascending.
    */
  def toExplanation(inst: LocalInstance, endState: State): Explanation =
    toExplanation(inst, endState, LocalBlocking.block(inst, endState.decided))

  /** [[toExplanation]] given the end state's blocking. */
  private def toExplanation(inst: LocalInstance, endState: State, blocking: BlockingResult): Explanation = {
    require(endState.isEnd, "toExplanation requires an end state")
    val funcs = endState.slots.map(_.asInstanceOf[Slot.Decided].f)
    val alignment = blocking.pairs(blocking.src, blocking.tgt).toVector
    val alignedSrc = alignment.iterator.map(_._1).to(BitSet)
    val alignedTgt = alignment.iterator.map(_._2).to(BitSet)
    Explanation(
      funcs,
      alignment,
      inst.source.indices.filterNot(alignedSrc).toVector,
      inst.target.indices.filterNot(alignedTgt).toVector)
  }

  /** Convenience: run with a given init strategy. */
  def run(inst: LocalInstance, cfg: AffidavitConfig, init: InitStrategy): AffidavitResult =
    new Affidavit(inst, cfg).run(init)
}
