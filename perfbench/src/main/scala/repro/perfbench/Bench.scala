package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import scala.collection.mutable
import scala.util.control.NonFatal

import repro.core.functions.Funcs
import repro.core.model.{AttrFunc, Costs, Explanation, RunningExample}
import repro.core.search.{Affidavit, AffidavitConfig, AffidavitResult, InitStrategy}
import repro.eval.Protocol
import repro.gen.{Dataset, Problem, ProblemGen}
import repro.spark.OverlapMatcher

/** What one explanation of an instance produced, as compared across
  * passes, runs and the traced replay.
  */
final case class Outcome(fingerprint: String, polls: Int, statesEvaluated: Int, cost: Double) {
  def line: String = s"fp=$fingerprint polls=$polls states=$statesEvaluated cost=$cost"
}

object Outcome {

  /** Hash of the functions' full content plus the sorted deleted and
    * inserted indices: equal hashes mean the same explanation.
    */
  def fingerprint(e: Explanation): String = {
    val text = e.funcs.map(content).mkString("\u0000") + "\u0001" +
      e.deleted.sorted.mkString(",") + "\u0001" + e.inserted.sorted.mkString(",")
    MessageDigest.getInstance("SHA-256").digest(text.getBytes(UTF_8)).take(8).map(b => f"$b%02x").mkString
  }

  /** A function's `describe` string, plus every entry of a value map
    * (its `describe` shows only the first four).
    */
  private def content(f: AttrFunc): String = f match {
    case Funcs.ValueMap(m) =>
      f.describe + m.toSeq.sorted.map { case (k, v) => s"$k\u0002$v" }.mkString("\u0003", "\u0003", "")
    case _ => f.describe
  }

  def of(r: AffidavitResult): Outcome =
    Outcome(fingerprint(r.explanation), r.polls, r.statesEvaluated, r.cost)

  def of(r: ReplayResult): Outcome =
    Outcome(fingerprint(r.explanation), r.polls, r.statesEvaluated, r.cost)
}

/** One instance of the workload and everything checked about it. */
final class Case(val id: Int, val part: Int, val label: String, val problem: Problem) {
  var reference: Option[Outcome] = None
  var dCosts: Double = Double.NaN
  var acc: Double = Double.NaN
  val seconds = mutable.ArrayBuffer.empty[Double]
  val failures = mutable.ArrayBuffer.empty[String]
  def failed: Boolean = failures.nonEmpty

  /** The instance and its outcome, as kept between runs. */
  def line: String = s"$label ${reference.map(_.line).getOrElse("-")}"
}

/** Result of a benchmark run: metrics by name, the instance cases and the
  * human-readable report lines.
  */
final case class BenchResult(
    metrics: Vector[(String, Double)],
    cases: Vector[Case],
    attempted: Int,
    failed: Int,
    report: Vector[String],
) {
  def correct: Boolean = failed == 0
}

/** Runs one workload: set-up, a warm-up, then timed passes for the
  * given number of seconds. Untraced passes call only `ProblemGen`,
  * `OverlapMatcher.compute` and `Affidavit.run`; traced passes replay the
  * search with spans (see [[Replay]]) and alternate with untraced ones so
  * the tracing overhead is measured in the same run.
  *
  * @param earlier each instance's `Case.line` as an earlier run of the same
  *                code, workload and seed recorded it, if one did
  */
final class Bench(
    wl: Workload,
    seed: Long,
    seconds: Double,
    traced: Boolean,
    env: SparkEnv,
    jvmStartSeconds: Double,
    sessionSeconds: Double,
    earlier: Option[Seq[String]],
    log: String => Unit,
) {
  import Bench._

  private val alpha = 0.5
  private val report = mutable.ArrayBuffer.empty[String]
  private def say(s: String): Unit = { report += s; log(s) }

  private def configFor(p: Problem): AffidavitConfig =
    if (wl.config == Protocol.Hs) AffidavitConfig.hsConfig(p.seed) else AffidavitConfig.hidConfig(p.seed)

  // ---- set-up: collect datasets and generate problems, several times ----

  private def collect(): Map[(String, Int), Dataset] =
    wl.parts.map(p => (p.dataset, p.rows)).distinct.map { case key @ (name, rows) =>
      val ds = ProblemGen.collectDataset(env.spark, name)
      key -> ds.copy(rows = ds.rows.take(rows))
    }.toMap

  private def generate(data: Map[(String, Int), Dataset]): Vector[Case] =
    wl.instanceSeeds(seed).zipWithIndex.map { case ((pi, s), id) =>
      val p = wl.parts(pi)
      val problem = ProblemGen.generate(data((p.dataset, p.rows)), p.eta, p.tau, s)
      new Case(id, pi, f"${p.dataset}%s/eta=${p.eta}%.1f/seed=$s%d", problem)
    }

  // ---- one untraced explanation: the span Protocol.evaluate times ----

  private def explain(c: Case): (AffidavitResult, Long) = {
    val inst = c.problem.inst
    val cfg = configFor(c.problem)
    val t0 = System.nanoTime()
    val init = if (wl.config == Protocol.Hs) {
      val sDf = ProblemGen.toDf(env.spark, inst, inst.source)
      val tDf = ProblemGen.toDf(env.spark, inst, inst.target)
      InitStrategy.Overlap(OverlapMatcher.compute(sDf, tDf, inst.attrs).idAttrs)
    } else InitStrategy.Id
    val res = Affidavit.run(inst, cfg, init)
    (res, System.nanoTime() - t0)
  }

  /** The per-instance correctness gate: validity (Def. 3.5), reported cost
    * equal to c(E) (Def. 3.10), and the same outcome as every earlier
    * explanation of the instance.
    */
  private def check(c: Case, res: AffidavitResult, seconds: Double): Unit = {
    val out = Outcome.of(res)
    c.reference match {
      case None =>
        c.reference = Some(out)
        if (!res.explanation.isValidFor(c.problem.inst)) c.failures += "explanation is not valid (Def. 3.5)"
        val ce = Costs.explanationCost(c.problem.inst, res.explanation, alpha)
        if (!sameCost(res.cost, ce)) c.failures += s"reported cost ${res.cost} != c(E) $ce"
        val judged = Protocol.judge(c.problem, res, seconds, wl.config, alpha)
        c.dCosts = judged.dCosts
        c.acc = judged.acc
      case Some(ref) if ref != out =>
        c.failures += s"nondeterministic: ${out.line} after ${ref.line}"
      case _ =>
    }
  }

  /** Explains and checks one instance; returns its explain nanos. */
  private def explainChecked(c: Case): Long =
    try {
      val (res, dt) = explain(c)
      check(c, res, dt / 1e9)
      dt
    } catch { case NonFatal(e) => c.failures += s"threw $e"; 0L }

  /** One untraced pass. After each explanation a few calibration units
    * run, outside the explain time; the pass's unit time is their mean, so
    * it averages the machine's speed over the pass as the pass time does.
    */
  private def untracedPass(cases: Vector[Case]): Pass = {
    var nanos, calNanos = 0L
    for (c <- cases) {
      val dt = explainChecked(c)
      c.seconds += dt / 1e9
      nanos += dt
      calNanos += Calibration.time(CalUnits)
    }
    Pass(nanos / 1e9, calNanos / 1e9 / (CalUnits * cases.size))
  }

  // ---- one traced pass ----

  private val tracer = new Tracer

  /** Replays every instance with spans; returns the pass's per-layer values. */
  private def tracedPass(cases: Vector[Case]): Map[String, Double] = {
    val from = tracer.size
    var sparkDelta = SparkCounts(0, 0, 0, 0, 0)
    var pairs, idAttrs, candidates, kept, offers, admitted = 0L
    var polls, states, maxMixed = 0L
    var explainNanos = 0L
    for (c <- cases) {
      tracer.instance = c.id
      val inst = c.problem.inst
      val cfg = configFor(c.problem)
      try {
        val before = env.counts()
        val t0 = System.nanoTime()
        val replay = tracer.span("explain") {
          val init = if (wl.config == Protocol.Hs) {
            val (sDf, tDf) = tracer.span("spark.to_df")(
              (ProblemGen.toDf(env.spark, inst, inst.source), ProblemGen.toDf(env.spark, inst, inst.target)))
            val ov = tracer.span("spark.overlap")(OverlapMatcher.compute(sDf, tDf, inst.attrs))
            pairs += ov.pairs
            idAttrs += ov.idAttrs.size
            InitStrategy.Overlap(ov.idAttrs)
          } else InitStrategy.Id
          tracer.span("search.run")(Replay.run(inst, cfg, init, tracer))
        }
        val dt = System.nanoTime() - t0
        explainNanos += dt
        sparkDelta = sparkDelta + (env.counts() - before)
        candidates += replay.candidates; kept += replay.kept
        offers += replay.offers; admitted += replay.admitted
        polls += replay.polls; states += replay.statesEvaluated
        maxMixed = math.max(maxMixed, replay.maxMixedRecords.toLong)

        val res = AffidavitResult(replay.explanation, replay.cost, replay.polls, replay.statesEvaluated)
        tracer.span("model.validate")(res.explanation.isValidFor(inst))
        tracer.span("eval.judge")(Protocol.judge(c.problem, res, dt / 1e9, wl.config, alpha))

        val out = Outcome.of(replay)
        if (!c.reference.contains(out))
          c.failures += s"replay differs from Affidavit.run: ${out.line} vs ${c.reference.map(_.line)}"
        replay.endState.foreach { case (h, queued) =>
          val sc = new Affidavit(inst, cfg).stateCost(h)
          if (!sameCost(queued, replay.cost) || !sameCost(sc, replay.cost))
            c.failures += s"end state cost $queued (stateCost $sc) != explanation cost ${replay.cost}"
        }
      } catch { case NonFatal(e) => c.failures += s"traced replay threw $e" }
    }
    tracer.instance = -1

    val spans = tracer.summary(from, tracer.size)
    def secs(n: String) = spans.get(n).map(_.seconds).getOrElse(0.0)
    def calls(n: String) = spans.get(n).map(_.calls.toDouble).getOrElse(0.0)
    val overlapS = secs("spark.overlap")
    val busyS = sparkDelta.taskBusyNanos / 1e9
    Map(
      "spark.to_df_s" -> secs("spark.to_df"),
      "spark.overlap_s" -> overlapS,
      "spark.overlap_pairs" -> pairs.toDouble,
      "spark.id_attrs" -> idAttrs.toDouble,
      "spark.jobs" -> sparkDelta.jobs.toDouble,
      "spark.stages" -> sparkDelta.stages.toDouble,
      "spark.tasks" -> sparkDelta.tasks.toDouble,
      "spark.task_busy_s" -> busyS,
      "spark.shuffle_write_bytes" -> sparkDelta.shuffleWriteBytes.toDouble,
      "spark.slot_idle_share" -> (if (overlapS > 0) 1.0 - busyS / (overlapS * env.slots) else 0.0),
      "search.run_s" -> secs("search.run"),
      "blocking.block_s" -> secs("blocking.block"),
      "blocking.block_calls" -> calls("blocking.block"),
      "blocking.max_mixed_records" -> maxMixed.toDouble,
      "blocking.indeterminacy_s" -> secs("blocking.indeterminacy"),
      "blocking.indeterminacy_calls" -> calls("blocking.indeterminacy"),
      "induction.induce_s" -> secs("induction.induce"),
      "induction.calls" -> calls("induction.induce"),
      "induction.candidates" -> candidates.toDouble,
      "sampling.greedy_map_s" -> secs("sampling.greedy_map"),
      "sampling.greedy_map_calls" -> calls("sampling.greedy_map"),
      "sampling.alignment_s" -> secs("sampling.alignment"),
      "search.refined_cost_s" -> secs("search.refined_cost"),
      "search.refined_cost_calls" -> calls("search.refined_cost"),
      "search.extensions_self_s" -> spans.get("search.extensions").map(_.selfSeconds).getOrElse(0.0),
      "search.state_cost_s" -> secs("search.state_cost"),
      "search.finalize_s" -> secs("search.finalize"),
      "search.to_explanation_s" -> secs("search.to_explanation"),
      "queue.offer_s" -> secs("queue.offer"),
      "queue.poll_s" -> secs("queue.poll"),
      "queue.offers" -> offers.toDouble,
      "queue.admit_share" -> (if (offers > 0) admitted.toDouble / offers else 0.0),
      "search.kept_share" -> (if (candidates > 0) kept.toDouble / candidates else 0.0),
      "search.polls" -> polls.toDouble,
      "search.states_evaluated" -> states.toDouble,
      "model.validate_s" -> secs("model.validate"),
      "eval.judge_s" -> secs("eval.judge"),
      "trace.explain_s" -> explainNanos / 1e9,
    )
  }

  // ---- the Figure 1 running example ----

  private def runningExample(): Seq[String] = {
    val inst = RunningExample.instance
    val cfg = AffidavitConfig.hidConfig(7L)
    val problems = mutable.ArrayBuffer.empty[String]
    try {
      val res = Affidavit.run(inst, cfg, InitStrategy.Id)
      if (!res.explanation.isValidFor(inst)) problems += "running example: explanation is not valid"
      if (res.cost > 77.0) problems += s"running example: cost ${res.cost} > c(E1) = 77"
      if (traced) {
        val replay = Replay.run(inst, cfg, InitStrategy.Id, new Tracer)
        if (Outcome.of(replay) != Outcome.of(res)) problems += "running example: replay differs from Affidavit.run"
      }
      say(s"running example: ${Outcome.of(res).line}")
    } catch { case NonFatal(e) => problems += s"running example threw $e" }
    problems.toSeq
  }

  def run(): BenchResult = {
    // Set-up, repeated: the first repetition pays cold Spark and JIT costs
    // and varies most between runs, so setup_s takes the median; the traced
    // run reports the cold repetition on its own as gen.cold_setup_s.
    val collectS = mutable.ArrayBuffer.empty[Double]
    val generateS = mutable.ArrayBuffer.empty[Double]
    var cases = Vector.empty[Case]
    for (_ <- 0 until SetupReps) {
      val t0 = System.nanoTime()
      val data = collect()
      val t1 = System.nanoTime()
      cases = generate(data)
      val t2 = System.nanoTime()
      collectS += (t1 - t0) / 1e9
      generateS += (t2 - t1) / 1e9
    }
    val setupS = jvmStartSeconds + sessionSeconds + median(collectS.indices.map(i => collectS(i) + generateS(i)))
    say(f"setup: jvm_start=$jvmStartSeconds%.3fs session=$sessionSeconds%.3fs " +
      s"collect=${collectS.map(x => f"$x%.3f").mkString("/")}s generate=${generateS.map(x => f"$x%.3f").mkString("/")}s")

    val reFailures = runningExample()

    // Warm-up: one untimed pass. It sets every instance's reference outcome
    // and quality, and leaves no instance's first explanation (which pays
    // cold Spark costs under H^s) to the timed passes. It also compiles the
    // calibration unit.
    val t0 = System.nanoTime()
    cases.foreach { c => explainChecked(c); Calibration.time(CalUnits) }
    say(f"warm-up: ${cases.size} instances in ${(System.nanoTime() - t0) / 1e9}%.3fs")

    val untraced = mutable.ArrayBuffer.empty[Pass]
    val tracedS = mutable.ArrayBuffer.empty[Double]
    val layers = mutable.ArrayBuffer.empty[Map[String, Double]]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    // Untraced runs time at least MinPasses passes; traced runs at least one
    // untraced and one traced pass.
    val minPasses = if (traced) 1 else MinPasses
    while (untraced.size < minPasses || System.nanoTime() < deadline) {
      untraced += untracedPass(cases)
      if (traced) {
        val l = tracedPass(cases)
        layers += l
        tracedS += l("trace.explain_s")
      }
    }

    // Live heap with every instance still referenced.
    val liveHeapMb = liveHeapMegabytes()
    java.lang.ref.Reference.reachabilityFence(cases)

    earlier.foreach { lines =>
      if (lines.size != cases.size)
        cases.head.failures += s"an earlier run had ${lines.size} instances, this one ${cases.size}"
      else for ((c, l) <- cases.zip(lines) if c.line != l) c.failures += s"differs from an earlier run: $l"
    }

    val untracedS = untraced.map(_.seconds).toSeq
    val (q1, med, q3) = quartiles(untracedS)
    say(f"explain passes: n=${untracedS.size} median=$med%.4fs q1=$q1%.4fs q3=$q3%.4fs " +
      untracedS.map(x => f"$x%.3f").mkString("[", " ", "]") +
      (if (traced) tracedS.map(x => f"$x%.3f").mkString(" traced [", " ", "]") else ""))
    val rel = untraced.map(_.relative).toSeq
    val (r1, relMed, r3) = quartiles(rel)
    say(f"explain / calibration unit: median=$relMed%.3f q1=$r1%.3f q3=$r3%.3f " +
      untraced.map(p => f"${p.unitSeconds * 1e3}%.2f").mkString("unit_ms [", " ", "]"))
    for (c <- cases)
      say(f"  [${c.id}%2d] ${c.label}%-34s ${c.reference.map(_.line).getOrElse("-")} t=${median(c.seconds.toSeq)}%.3fs dcosts=${c.dCosts}%.4f acc=${c.acc}%.4f" +
        (if (c.failed) " FAILED: " + c.failures.mkString("; ") else ""))
    reFailures.foreach(f => say(s"FAILED: $f"))

    val failed = cases.count(_.failed) + (if (reFailures.nonEmpty) 1 else 0)
    val attempted = cases.size + 1
    val metrics: Vector[(String, Double)] =
      if (!traced) Vector(
        "explain_rel" -> relMed,
        "setup_s" -> setupS,
        "dcosts_mean" -> mean(cases.map(_.dCosts)),
        "acc_mean" -> mean(cases.map(_.acc)),
        "ok_share" -> (1.0 - failed.toDouble / attempted),
        "live_heap_mb" -> liveHeapMb,
      )
      else {
        val untracedMed = med
        val perPass = Metrics.perLayer.map(_.name)
          .filterNot(n => n.startsWith("gen.") || n.startsWith("explain.") || n.startsWith("calibration.") || n == "trace.overhead_share")
        Vector(
          "gen.collect_s" -> median(collectS.toSeq),
          "gen.generate_s" -> median(generateS.toSeq),
          "gen.cold_setup_s" -> (collectS.head + generateS.head),
          "explain.wall_s" -> med,
          "calibration.unit_ms" -> median(untraced.map(_.unitSeconds * 1e3).toSeq),
        ) ++
          perPass.map(n => n -> median(layers.map(_(n)).toSeq)) :+
          ("trace.overhead_share" -> (median(tracedS.toSeq) - untracedMed) / untracedMed)
      }
    BenchResult(metrics, cases, attempted, failed, report.toVector)
  }

  def writeSpans(path: java.nio.file.Path): Unit = tracer.writeJsonLines(path)
}

/** An untraced pass: its explain time and the calibration unit time
  * measured alongside it. `relative` is the pass time in calibration units.
  */
final case class Pass(seconds: Double, unitSeconds: Double) {
  def relative: Double = seconds / unitSeconds
}

object Bench {
  val SetupReps = 3
  val MinPasses = 2
  val CalUnits = 2

  def sameCost(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  def median(xs: Seq[Double]): Double = quartiles(xs)._2

  /** First quartile, median and third quartile (linear interpolation). */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted.toIndexedSeq
    def q(p: Double): Double = {
      val pos = p * (s.size - 1)
      val lo = math.floor(pos).toInt
      val hi = math.ceil(pos).toInt
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }
    (q(0.25), q(0.5), q(0.75))
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  def liveHeapMegabytes(): Double = {
    val mem = java.lang.management.ManagementFactory.getMemoryMXBean
    System.gc()
    System.gc()
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
