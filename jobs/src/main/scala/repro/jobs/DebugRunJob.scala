package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.eval.Protocol
import repro.gen.ProblemGen

/** Diagnostic entrypoint: run one configuration on one generated instance
  * and print the learned functions next to the reference.
  */
object DebugRunJob {
  def main(args: Array[String]): Unit = {
    val name = if (args.nonEmpty) args(0) else "adult"
    val eta = if (args.length > 1) args(1).toDouble else 0.7
    val seed = if (args.length > 2) args(2).toLong else 2007L
    val config = if (args.length > 3) args(3) else Protocol.Hid

    val spark = SparkSession.builder.master("local[*]").appName("debug-run")
      .config("spark.ui.enabled", false).getOrCreate()
    try {
      val ds = ProblemGen.collectDataset(spark, name)
      val p = ProblemGen.generate(ds, eta, eta, seed)
      val r = Protocol.evaluate(spark, p, config)
      println(f"t=${r.seconds}%.2f dCore=${r.dCore}%.3f dCosts=${r.dCosts}%.3f acc=${r.acc}%.3f")
      val (base, init) = Protocol.configure(spark, p, config)
      val res = repro.core.search.Affidavit.run(p.inst, base.copy(trace = s => println(s"TRACE $s")), init)
      println(s"polls=${res.polls} evaluated=${res.statesEvaluated} cost=${res.cost}")
      for ((a, i) <- p.inst.attrs.zipWithIndex) {
        val found = res.explanation.funcs(i).describe
        val ref = p.reference.funcs(i).describe
        val mark = if (found.take(30) == ref.take(30)) "  " else "!!"
        println(f"$mark $a%-16s found=${found.take(50)}%-52s ref=${ref.take(50)}")
      }
    } finally spark.stop()
  }
}
