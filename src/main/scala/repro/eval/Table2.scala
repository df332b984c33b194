package repro.eval

import repro.gen.{Datasets, ProblemGen}

/** Runner for the paper's Table 2: for each dataset, each difficulty
  * setting and each configuration, macro-average the per-instance metrics
  * over the paper's [[PaperNumbers.instances]] generated problem instances.
  */
object Table2 {

  /** Macro-averaged row: one (dataset, setting, config) cell of Table 2. */
  final case class AggRow(
      dataset: String,
      eta: Double,
      tau: Double,
      config: String,
      instances: Int,
      seconds: Double,
      dCore: Double,
      dCosts: Double,
      acc: Double,
  )

  def aggregate(results: Seq[RunResult]): Seq[AggRow] =
    results
      .groupBy(r => (r.dataset, r.eta, r.tau, r.config))
      .toSeq
      .map { case ((ds, eta, tau, cfg), rs) =>
        AggRow(
          ds, eta, tau, cfg, rs.size,
          avg(rs.map(_.seconds)),
          avg(rs.map(_.dCore)),
          avg(rs.map(_.dCosts)),
          avg(rs.map(_.acc)))
      }

  private def avg(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Both configurations, in report order. */
  private val configs: Seq[String] = Seq(Protocol.Hs, Protocol.Hid)

  /** Seed of instance `i` under setting `si` is `seedBase + 1000·si + i`. */
  private val seedBase: Long = 7L

  /** Run the full matrix for one dataset (generated once, instances share
    * the table like the paper's repeated transformations of one table).
    */
  def runDataset(datasetName: String, log: String => Unit = _ => ()): Seq[RunResult] = {
    val ds = Datasets.load(datasetName)
    for {
      ((eta, tau), si) <- PaperNumbers.settings.zipWithIndex
      i <- 0 until PaperNumbers.instances
      problem = ProblemGen.generate(ds, eta, tau, seedBase + 1000L * si + i)
      config <- configs
    } yield {
      val r = Protocol.evaluate(problem, config)
      log(f"${r.dataset}%-12s η=τ=${eta}%.1f #$i ${r.config}%-3s " +
        f"t=${r.seconds}%7.2fs Δcore=${r.dCore}%5.2f Δcosts=${r.dCosts}%5.2f acc=${r.acc}%5.2f")
      r
    }
  }

  /** Render measured rows next to the published numbers. */
  def report(rows: Seq[AggRow]): String = {
    val sb = new StringBuilder
    sb.append(
      "dataset      |A| setting  cfg  | t[s] ours  Δcore ours  Δcosts ours  acc ours | t[s] paper Δcore paper Δcosts paper acc paper\n")
    val byKey = rows.map(r => ((r.dataset, r.eta, r.config), r)).toMap
    for {
      (ds, nAttrs, _) <- PaperNumbers.datasets
      if rows.exists(_.dataset == ds)
      config <- configs
      ((eta, tau), si) <- PaperNumbers.settings.zipWithIndex
    } {
      val paper = PaperNumbers.table2((ds, config))(si)
      byKey.get((ds, eta, config)).foreach { r =>
        sb.append(
          f"$ds%-12s $nAttrs%3d η=τ=$eta%.1f  ${config}%-4s| ${r.seconds}%9.2f  ${r.dCore}%10.2f  ${r.dCosts}%11.2f  ${r.acc}%8.2f | ${paper.t}%9.2f  ${paper.dCore}%10.2f  ${paper.dCosts}%11.2f  ${paper.acc}%8.2f\n")
      }
    }
    sb.toString
  }
}
