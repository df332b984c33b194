package repro.perfbench

import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite

/** Every named metric is reported, with a unit, on every workload, and
  * `BENCHMARK.json` names the same metrics and workloads.
  */
class MetricsSpec extends AnyFunSuite {

  private lazy val benchmarkJson = {
    def up(p: Path): Path =
      if (Files.exists(p.resolve("BENCHMARK.json"))) p.resolve("BENCHMARK.json")
      else if (p.getParent == null) fail("BENCHMARK.json not found above the working directory")
      else up(p.getParent)
    new ObjectMapper().readTree(up(Paths.get("").toAbsolutePath).toFile)
  }

  private def listed(key: String): Seq[(String, String)] =
    benchmarkJson.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

  test("BENCHMARK.json lists exactly the metrics and workloads the benchmark reports") {
    assert(listed("end_to_end") == Metrics.endToEnd.map(m => m.name -> m.unit))
    assert(listed("per_layer") == Metrics.perLayer.map(m => m.name -> m.unit))
    val better = benchmarkJson.get("end_to_end").elements().asScala.map(_.get("better").asText).toSeq ++
      benchmarkJson.get("per_layer").elements().asScala.map(_.get("better").asText)
    assert(better == (Metrics.endToEnd ++ Metrics.perLayer).map(_.better))
    val workloads = benchmarkJson.get("workloads").elements().asScala.map(_.get("name").asText).toSeq
    assert(workloads == Workloads.all.map(_.name))
  }

  /** The workload's configuration and datasets on one small instance. */
  private def small(wl: Workload): Workload =
    wl.copy(parts = wl.parts.take(1).map(p => p.copy(rows = math.min(p.rows, 150), instances = 1)))

  for (wl <- Workloads.all; traced <- Seq(false, true)) {
    test(s"${wl.name} reports every ${if (traced) "per-layer" else "end-to-end"} metric with a unit") {
      val r = new Bench(small(wl), 7L, 0.0, traced, TestSpark.env, 0.1, 0.1, None, _ => ()).run()
      assert(r.correct, r.report.filter(_.contains("FAILED")).mkString("\n"))
      val expected = if (traced) Metrics.perLayer else Metrics.endToEnd
      assert(r.metrics.map(_._1) == expected.map(_.name))
      assert(r.metrics.forall { case (n, v) => !v.isNaN && Metrics.unitOf(n).nonEmpty })
      val line = Main.json(r.correct, r.attempted, r.failed, r.metrics)
      val parsed = new ObjectMapper().readTree(line)
      for (m <- expected) assert(parsed.get("metrics").get(m.name).get("unit").asText == m.unit)
    }
  }
}
