package repro.eval

import repro.core.model.Costs
import repro.core.search.{Affidavit, AffidavitConfig, InitStrategy}
import repro.gen.Problem
import repro.spark.OverlapMatcher
import repro.spark.OverlapMatcher.OverlapResult

/** Per-instance evaluation result (§5.2): runtime, relative core size,
  * relative costs, and cell accuracy against the reference explanation.
  */
final case class RunResult(
    dataset: String,
    eta: Double,
    tau: Double,
    config: String,
    seconds: Double,
    dCore: Double,
    dCosts: Double,
    acc: Double,
)

/** The evaluation protocol of §5.2. */
object Protocol {

  /** Names of the two evaluated configurations. */
  val Hs = "Hs"
  val Hid = "Hid"

  /** Run one configuration on one problem instance and judge the result.
    *
    * `Hs` computes its start state with the overlap matcher (the timing
    * includes that step, as in the paper); `Hid` starts from the
    * one-id-per-attribute state set.
    */
  def evaluate(problem: Problem, config: String): RunResult = {
    val t0 = System.nanoTime()
    val (cfg, init, _) = configure(problem, config)
    val res = Affidavit.run(problem.inst, cfg, init)
    val seconds = (System.nanoTime() - t0) / 1e9
    judge(problem, res, seconds, config, cfg.alpha)
  }

  /** The search configuration and start strategy of a configuration; `Hs`
    * runs the overlap matcher on the instance's encoding here and also
    * returns its result.
    */
  def configure(problem: Problem, config: String): (AffidavitConfig, InitStrategy, Option[OverlapResult]) =
    config match {
      case Hid => (AffidavitConfig.hidConfig(problem.seed), InitStrategy.Id, None)
      case Hs =>
        val overlap = OverlapMatcher.compute(problem.inst.encoded, OverlapMatcher.MaxBlock)
        (AffidavitConfig.hsConfig(problem.seed), InitStrategy.Overlap(overlap.idAttrs), Some(overlap))
      case other => sys.error(s"unknown config: $other")
    }

  /** Compute the §5.2 metrics for a finished run. */
  def judge(
      problem: Problem,
      res: repro.core.search.AffidavitResult,
      seconds: Double,
      config: String,
      alpha: Double = 0.5,
  ): RunResult = {
    val inst = problem.inst
    val ref = problem.reference
    val refCost = Costs.explanationCost(inst, ref, alpha)
    val resCost = Costs.explanationCost(inst, res.explanation, alpha)
    val dCore =
      if (ref.coreSize == 0) 0.0 else res.explanation.coreSize.toDouble / ref.coreSize
    val dCosts = if (refCost == 0) 1.0 else resCost / refCost

    // Accuracy: fraction of cells of the reference core that the learned
    // functions translate exactly like the reference functions, ignoring
    // the artificial primary key attribute (§5.2).
    var ok = 0L
    var total = 0L
    for ((s, _) <- ref.alignment) {
      val rec = inst.source(s)
      var a = 0
      while (a < inst.d) {
        if (a != problem.pkIndex) {
          total += 1
          if (res.explanation.funcs(a)(rec(a)) == ref.funcs(a)(rec(a))) ok += 1
        }
        a += 1
      }
    }
    val acc = if (total == 0) 0.0 else ok.toDouble / total

    RunResult(problem.dataset, problem.eta, problem.tau, config, seconds, dCore, dCosts, acc)
  }
}
