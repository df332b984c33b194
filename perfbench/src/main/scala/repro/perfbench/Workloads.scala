package repro.perfbench

import repro.eval.Protocol

/** One group of instances of a workload: `instances` problems generated
  * from the first `rows` rows of a dataset at noise η and change rate τ.
  */
final case class Part(dataset: String, rows: Int, eta: Double, tau: Double, instances: Int)

/** A named benchmark workload: a `Protocol` configuration (`Hid` or `Hs`)
  * and the instance set one pass explains.
  */
final case class Workload(name: String, config: String, parts: Vector[Part]) {

  /** (part index, instance seed) for every instance of a pass. The seeds
    * are derived from the workload seed only, so a seed fixes the inputs.
    */
  def instanceSeeds(seed: Long): Vector[(Int, Long)] =
    for {
      (p, pi) <- parts.zipWithIndex
      i <- (0 until p.instances).toVector
    } yield (pi, seed * 1000L + pi * 100L + i)
}

/** The workloads; perfbench/README.md gives the reasons for each. The
  * tables are cut to their first rows so a pass stays under ten seconds;
  * many instances per pass average out how hard one seed's draw is.
  */
object Workloads {

  val all: Vector[Workload] = Vector(
    // H^id on tall low-cardinality tables (big mixed blocks: per-record
    // work) and on a wide table (many states: per-state work).
    Workload("hid", Protocol.Hid,
      Vector(
        Part("chess", 700, 0.3, 0.3, 6), Part("letter", 500, 0.3, 0.3, 6),
        Part("flight-1k", 1000, 0.3, 0.3, 4), Part("flight-1k", 1000, 0.7, 0.7, 4))),
    // H^s: the Spark overlap matcher dominates; bridges is all fixed latency.
    Workload("hs-overlap", Protocol.Hs,
      Vector(
        Part("bridges", 108, 0.3, 0.3, 4), Part("abalone", 400, 0.3, 0.3, 1),
        Part("flight-1k", 100, 0.3, 0.3, 1))),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; one of ${all.map(_.name).mkString(", ")}"))
}
