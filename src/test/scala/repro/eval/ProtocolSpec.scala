package repro.eval

import org.apache.spark.JobCounter

import repro.SparkSpec
import repro.gen.{Datasets, ProblemGen}
import repro.spark.OverlapMatcher

class ProtocolSpec extends SparkSpec {

  private lazy val iris = Datasets.load("iris")
  private lazy val bridges = Datasets.load("bridges")
  private lazy val abalone = Datasets.load("abalone")

  test("H^id explains an easy iris instance with high accuracy") {
    val p = ProblemGen.generate(iris, 0.3, 0.3, seed = 101)
    val r = Protocol.evaluate(p, Protocol.Hid)
    assert(r.acc >= 0.95, s"acc ${r.acc}")
    assert(r.dCore >= 0.9, s"dCore ${r.dCore}")
    assert(r.dCosts <= 1.2, s"dCosts ${r.dCosts}")
  }

  test("H^s explains an easy iris instance with high accuracy") {
    val p = ProblemGen.generate(iris, 0.3, 0.3, seed = 102)
    val r = Protocol.evaluate(p, Protocol.Hs)
    assert(r.acc >= 0.9, s"acc ${r.acc}")
  }

  test("configuring H^s runs no Spark job and matches the matcher on DataFrames") {
    for (ds <- Seq(bridges, abalone); seed <- 1L to 2L) {
      val p = ProblemGen.generate(ds, 0.3, 0.3, seed)
      val ((_, _, overlap), jobs) = JobCounter(spark.sparkContext)(Protocol.configure(p, Protocol.Hs))
      assert(jobs == 0, s"${ds.name}/$seed: $jobs jobs")
      val inst = p.inst
      val onDfs = OverlapMatcher.compute(
        ProblemGen.toDf(spark, inst, inst.source), ProblemGen.toDf(spark, inst, inst.target), inst.attrs)
      assert(overlap.contains(onDfs), s"${ds.name}/$seed")
    }
  }

  test("H^id handles a hard bridges instance decently") {
    val p = ProblemGen.generate(bridges, 0.7, 0.7, seed = 103)
    val r = Protocol.evaluate(p, Protocol.Hid)
    assert(r.acc >= 0.6, s"acc ${r.acc}")
    assert(r.dCosts <= 1.6, s"dCosts ${r.dCosts}")
  }

  test("metrics are reported in the expected ranges") {
    val p = ProblemGen.generate(iris, 0.5, 0.5, seed = 104)
    val r = Protocol.evaluate(p, Protocol.Hid)
    assert(r.seconds > 0)
    assert(r.dCore >= 0 && r.acc >= 0 && r.acc <= 1)
    assert(r.dataset == "iris" && r.eta == 0.5 && r.tau == 0.5)
  }

  test("Table2 aggregation macro-averages per cell") {
    val rs = Seq(
      RunResult("d", 0.3, 0.3, "Hid", 1.0, 1.0, 1.0, 1.0),
      RunResult("d", 0.3, 0.3, "Hid", 3.0, 0.5, 2.0, 0.5),
      RunResult("d", 0.5, 0.5, "Hid", 9.0, 1.0, 1.0, 1.0))
    val agg = Table2.aggregate(rs)
    assert(agg.size == 2)
    val cell = agg.find(_.eta == 0.3).get
    assert(cell.seconds == 2.0 && cell.dCore == 0.75 && cell.acc == 0.75 && cell.instances == 2)
  }

  test("paper numbers cover every (dataset, config, setting)") {
    for ((ds, _, _) <- PaperNumbers.datasets; cfg <- Seq(Protocol.Hs, Protocol.Hid)) {
      assert(PaperNumbers.table2.contains((ds, cfg)), s"$ds/$cfg")
      assert(PaperNumbers.table2((ds, cfg)).size == 3)
    }
  }

  test("report renders one line per measured cell with paper numbers") {
    val rows = Seq(
      Table2.AggRow("iris", 0.3, 0.3, "Hs", 2, 0.1, 1.0, 1.0, 1.0),
      Table2.AggRow("iris", 0.3, 0.3, "Hid", 2, 0.2, 1.0, 1.0, 1.0))
    val rep = Table2.report(rows)
    assert(rep.linesIterator.size == 3) // header + 2 cells
    assert(rep.contains("iris"))
    assert(rep.contains("0.12")) // paper's Hs runtime on iris
  }
}
