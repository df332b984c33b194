package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Prints a report, then as its last line one JSON object with `correct`,
  * `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
  * the per-layer metrics traced). Exits 1 when any output is wrong and 2
  * on bad arguments.
  *
  * System properties set by `run.py`: `perfbench.launchedAtMs` (epoch ms at
  * which the JVM was launched, for the set-up time), `perfbench.buildDir`
  * (where fingerprints and spans are kept), `perfbench.sourceHash` and
  * `perfbench.gitCommit` (identify the code measured).
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  def parse(argv: Seq[String]): Args = {
    val kv = argv.grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    require(get("trace") == "0" || get("trace") == "1", "--trace must be 0 or 1")
    Args(Workloads.byName(get("workload")), get("seed").toLong, get("seconds").toDouble, get("trace") == "1")
  }

  def main(argv: Array[String]): Unit = {
    val mainAtMs = System.currentTimeMillis()
    val args =
      try parse(argv.toSeq)
      catch {
        case e: IllegalArgumentException =>
          System.err.println(s"perfbench: ${e.getMessage}")
          sys.exit(2)
      }
    val jvmStartS = sys.props.get("perfbench.launchedAtMs").map(ms => (mainAtMs - ms.toDouble) / 1000.0).getOrElse(0.0)
    val buildDir = Paths.get(sys.props.getOrElse("perfbench.buildDir", ".bench_build/perfbench"))
    val sourceHash = sys.props.getOrElse("perfbench.sourceHash", "unknown")

    val t0 = System.nanoTime()
    val env = SparkEnv.create()
    val sessionS = (System.nanoTime() - t0) / 1e9
    val sparkRecord = env.record
    val store = Files.createDirectories(buildDir.resolve("fingerprints").resolve(sourceHash))
      .resolve(s"${args.workload.name}-seed${args.seed}.txt")
    val earlier = if (Files.exists(store)) Some(Files.readAllLines(store, UTF_8).asScala.toSeq) else None
    val result =
      try {
        val bench = new Bench(
          args.workload, args.seed, args.seconds, args.trace, env, jvmStartS, sessionS, earlier, println)
        val r = bench.run()
        if (args.trace) {
          val dir = Files.createDirectories(buildDir.resolve("traces"))
          val path = dir.resolve(s"${args.workload.name}-seed${args.seed}.spans.jsonl")
          bench.writeSpans(path)
          println(s"spans: $path")
        }
        r
      } finally env.spark.stop()

    if (earlier.isEmpty && result.correct) Files.write(store, result.cases.map(_.line).asJava, UTF_8)

    val rt = Runtime.getRuntime
    val record = sparkRecord ++ Seq(
      "nproc" -> rt.availableProcessors().toString,
      "max_heap_mb" -> (rt.maxMemory() / (1024 * 1024)).toString,
      "git_commit" -> sys.props.getOrElse("perfbench.gitCommit", "unknown"),
      "source_hash" -> sourceHash,
      "workload" -> args.workload.name,
      "seed" -> args.seed.toString,
      "trace" -> (if (args.trace) "1" else "0"),
    )
    println("environment: " + record.map { case (k, v) => s"$k=$v" }.mkString(" "))
    for ((name, value) <- result.metrics) println(f"  $name%-30s $value%.6g ${Metrics.unitOf(name)}")

    println(json(result.correct, result.attempted, result.failed, result.metrics))
    sys.exit(if (result.correct) 0 else 1)
  }

  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double)]): String = {
    val ms = metrics.map { case (n, v) =>
      val num = if (v.isNaN || v.isInfinite) "null" else v.toString
      s""""$n": {"value": $num, "unit": "${Metrics.unitOf(n)}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
