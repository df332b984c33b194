package repro.jobs

import repro.core.search.Affidavit
import repro.eval.Protocol
import repro.gen.{Datasets, ProblemGen}

/** Explains one generated instance (η = τ) and prints how the run went.
  *
  * Usage: ExplainJob <dataset> [eta] [seed] [Hid|Hs] [scaled|literal]
  *
  * Prints the §5.2 judge line; the search's polls, states evaluated and
  * cost; and each attribute's learned function next to the reference's
  * (`!!` marks an attribute on which they map some source value
  * differently, so `mul(0.25)` against `div(4)` is not marked). For `Hs`
  * it also prints the overlap matcher's decision: best pairs, modal score,
  * and the chosen id attributes against the attributes the reference
  * leaves unchanged. `literal` prices states with the paper's unscaled
  * record bound (`scaleRecordBound = false`, DESIGN.md §3).
  */
object ExplainJob {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: ExplainJob <dataset> [eta] [seed] [Hid|Hs] [scaled|literal]")
    val name = args(0)
    val eta = if (args.length > 1) args(1).toDouble else 0.3
    val seed = if (args.length > 2) args(2).toLong else 7L
    val config = if (args.length > 3) args(3) else Protocol.Hid
    val bound = if (args.length > 4) args(4) else "scaled"
    require(bound == "scaled" || bound == "literal", s"unknown record bound: $bound")

    val p = ProblemGen.generate(Datasets.load(name), eta, eta, seed)
    val attrs = p.inst.attrs
    val t0 = System.nanoTime()
    val (cfg, init, overlap) = Protocol.configure(p, config)
    val res = Affidavit.run(p.inst, cfg.copy(scaleRecordBound = bound == "scaled"), init)
    val r = Protocol.judge(p, res, (System.nanoTime() - t0) / 1e9, config, cfg.alpha)
    println(f"$name eta=$eta seed=$seed $config $bound: t=${r.seconds}%.2f " +
      f"dCore=${r.dCore}%.3f dCosts=${r.dCosts}%.3f acc=${r.acc}%.3f")
    println(s"polls=${res.polls} states=${res.statesEvaluated} cost=${res.cost}")
    for ((a, i) <- attrs.zipWithIndex) {
      val (found, ref) = (res.explanation.funcs(i), p.reference.funcs(i))
      val enc = p.inst.encoded(i)
      val mark = if (enc.src.distinct.exists(c => found(enc.dict(c)) != ref(enc.dict(c)))) "!!" else "  "
      println(f"$mark $a%-16s found=${found.describe.take(50)}%-52s ref=${ref.describe.take(50)}")
    }
    for (o <- overlap) {
      val unchanged = attrs.indices.filter(p.reference.funcs(_).isIdentity)
      println(s"overlap: pairs=${o.pairs} modalScore=${o.modalScore}")
      println(s"  id attrs        = ${o.idAttrs.toSeq.sorted.map(attrs).mkString(", ")}")
      println(s"  truly unchanged = ${unchanged.map(attrs).mkString(", ")}")
    }
  }
}
