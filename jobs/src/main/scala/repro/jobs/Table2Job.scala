package repro.jobs

import repro.eval.Table2

/** Entrypoint reproducing the paper's Table 2; driver work only.
  *
  * Usage: Table2Job [datasetCsv|all] [instancesPerCell] [seedBase]
  *
  * Prints per-instance progress and a final paper-vs-measured report.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val datasets =
      if (args.isEmpty || args(0) == "all") repro.gen.Datasets.all.map(_.name)
      else args(0).split(",").toVector
    val instances = if (args.length > 1) args(1).toInt else 3
    val seedBase = if (args.length > 2) args(2).toLong else 7L

    val results = datasets.flatMap { ds =>
      Table2.runDataset(ds, instances, seedBase = seedBase, log = println)
    }
    println(Table2.report(Table2.aggregate(results)))
  }
}
