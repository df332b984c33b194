package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths, StandardOpenOption}

import scala.collection.mutable

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.{PaperNumbers, Protocol, RunResult, Table2}

/** Reproduction of the paper's Table 2 (§5.3): both configurations (H^s and
  * H^id) on all 17 datasets across the three (η, τ) settings, macro-averaged
  * over the paper's 10 problem instances per cell. `REPRO_DATASETS` (a
  * comma-separated list) runs a subset and still reports it.
  *
  * One test per dataset so partial runs still report; the final test prints
  * the full paper-vs-measured table and writes
  * `bench_results/table2.tsv` + `bench_results/table2_report.txt`.
  */
class Table2Bench extends AnyFunSuite {

  private val only = sys.env.get("REPRO_DATASETS").map(_.split(",").toSet)

  private def benchDataset(name: String): Unit = {
    if (only.exists(!_.contains(name))) { cancel(s"$name excluded via REPRO_DATASETS") }
    val results = Table2.runDataset(name, log = line => info(line))
    Table2Bench.results ++= results
    // Sanity floor so a silently-broken search fails the bench, not just
    // produces bad numbers: the easy setting must stay accurate.
    val easy = results.filter(r => r.eta == 0.3 && r.config == Protocol.Hid)
    val accAvg = easy.map(_.acc).sum / easy.size
    assert(accAvg >= 0.6, f"H^id accuracy collapsed on $name (η=0.3): $accAvg%.2f")
  }

  for ((name, _, _) <- PaperNumbers.datasets) {
    test(s"table2: $name") { benchDataset(name) }
  }

  test("zz: report") {
    assert(Table2Bench.results.nonEmpty, "no dataset produced results")
    val agg = Table2.aggregate(Table2Bench.results.toSeq)
    val report = Table2.report(agg)
    println(report)

    val dir = Paths.get("bench_results")
    Files.createDirectories(dir)
    val tsv = new StringBuilder("dataset\teta\ttau\tconfig\tinstances\tt\tdCore\tdCosts\tacc\n")
    for (r <- agg.sortBy(r => (r.dataset, r.config, r.eta)))
      tsv.append(f"${r.dataset}\t${r.eta}%.1f\t${r.tau}%.1f\t${r.config}\t${r.instances}\t${r.seconds}%.3f\t${r.dCore}%.3f\t${r.dCosts}%.3f\t${r.acc}%.3f\n")
    Files.write(dir.resolve("table2.tsv"), tsv.toString.getBytes(UTF_8),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
    Files.write(dir.resolve("table2_report.txt"), report.getBytes(UTF_8),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)

    // Shape assertions against the paper (not absolute numbers):
    // H^id beats H^s on the datasets where the paper reports H^s collapse.
    for (ds <- Seq("chess", "letter", "nursery")) {
      val hid = agg.filter(r => r.dataset == ds && r.config == Protocol.Hid)
      val hs = agg.filter(r => r.dataset == ds && r.config == Protocol.Hs)
      if (hid.nonEmpty && hs.nonEmpty) {
        val hidAcc = hid.map(_.acc).sum / hid.size
        val hsAcc = hs.map(_.acc).sum / hs.size
        assert(hidAcc > hsAcc, f"$ds: expected H^id ($hidAcc%.2f) > H^s ($hsAcc%.2f)")
      }
    }
  }
}

object Table2Bench {
  val results: mutable.ArrayBuffer[RunResult] = mutable.ArrayBuffer.empty
}
