package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.functions.Funcs
import repro.core.model.{Explanation, LocalInstance, RunningExample}
import repro.core.search.{Affidavit, AffidavitConfig, InitStrategy}
import repro.gen.ProblemGen

/** The traced replay must reproduce `Affidavit.run` exactly, and the
  * outcome fingerprint that compares them must tell explanations apart.
  */
class ReplaySpec extends AnyFunSuite {

  private def assertSame(inst: LocalInstance, cfg: AffidavitConfig, init: InitStrategy): ReplayResult = {
    val tr = new Tracer
    val replay = Replay.run(inst, cfg, init, tr)
    val res = Affidavit.run(inst, cfg, init)
    assert(Outcome.of(replay) == Outcome.of(res))
    assert(replay.explanation == res.explanation)
    assert(tr.size > 0)
    replay
  }

  test("replay equals Affidavit.run on the running example (H^id)") {
    val r = assertSame(RunningExample.instance, AffidavitConfig.hidConfig(7L), InitStrategy.Id)
    assert(r.cost <= 77.0)
    assert(r.endState.exists { case (_, c) => c == r.cost })
  }

  test("replay equals Affidavit.run on the running example (greedy configuration)") {
    assertSame(RunningExample.instance, AffidavitConfig.hsConfig(7L), InitStrategy.Overlap(Set(3, 6)))
  }

  test("replay equals Affidavit.run on a generated bridges instance (H^id)") {
    val ds = ProblemGen.collectDataset(TestSpark.env.spark, "bridges")
    val p = ProblemGen.generate(ds, 0.3, 0.3, 7L)
    val r = assertSame(p.inst, AffidavitConfig.hidConfig(p.seed), InitStrategy.Id)
    assert(r.polls > 0 && r.statesEvaluated >= r.polls)
  }

  test("the fingerprint sees value-map entries that describe leaves out") {
    def withMap(last: String) = Explanation(
      Vector(Funcs.ValueMap((1 to 5).map(i => s"k$i" -> (if (i == 5) last else s"v$i")).toMap)),
      Vector.empty, Vector(2, 0), Vector(1))
    val (a, b) = (withMap("x"), withMap("y"))
    assert(a.funcs.head.describe == b.funcs.head.describe)
    assert(Outcome.fingerprint(a) != Outcome.fingerprint(b))
    assert(Outcome.fingerprint(a) == Outcome.fingerprint(a.copy(deleted = Vector(0, 2))))
  }

  test("span self time excludes child spans") {
    val tr = new Tracer
    tr.span("outer") { tr.span("inner")(Thread.sleep(20)) }
    val s = tr.summary(0, tr.size)
    assert(s("outer").calls == 1 && s("inner").calls == 1)
    assert(s("outer").seconds >= s("inner").seconds)
    assert(s("outer").selfSeconds < s("inner").seconds)
  }
}
