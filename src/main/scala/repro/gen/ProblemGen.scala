package repro.gen

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

import repro.core.functions.Funcs
import repro.core.model.{AttrFunc, Explanation, LocalInstance, Num}

/** A dataset materialized on the driver (generated once per dataset and
  * reused across all problem instances derived from it).
  */
final case class Dataset(name: String, attrs: Vector[String], rows: Array[Array[String]]) {

  /** Each attribute's distinct values in first-occurrence order, built once
    * per dataset rather than once per generated instance. Derived from
    * `rows`, so a copy with other rows derives its own.
    */
  lazy val domains: Vector[Array[String]] = Vector.tabulate(attrs.length) { a =>
    val seen = mutable.LinkedHashSet.empty[String]
    rows.foreach(r => seen += r(a))
    seen.toArray
  }
}

/** A generated problem instance plus everything needed to judge a produced
  * explanation against the ground truth (§5.1–§5.2).
  *
  * @param inst       the instance; the artificial primary key is the last
  *                   attribute (`pk`), running integers permuted differently
  *                   in both snapshots
  * @param reference  the reference explanation E_ref: core alignment, noise
  *                   records as deletions/insertions, sampled functions
  *                   (value maps restricted to core values for honest ψ,
  *                   like the paper's scaled-instance costs)
  * @param appliedFuncs the full functions actually used to build the target
  *                   snapshot (maps over the whole domain)
  */
final case class Problem(
    dataset: String,
    eta: Double,
    tau: Double,
    seed: Long,
    inst: LocalInstance,
    reference: Explanation,
    appliedFuncs: Vector[AttrFunc],
    pkIndex: Int,
)

/** Generates problem instances from a dataset by the paper's §5.1 protocol:
  * choose core and noise record sets (noise fraction η per snapshot),
  * sample a transformation per attribute with probability τ (rejecting
  * samplings that transform every attribute), apply the transformations to
  * core and target noise, and add an artificial integer primary key in two
  * different permutations.
  */
object ProblemGen {

  /** [[Datasets.load]] for callers that still pass a session, which goes unused. */
  def collectDataset(spark: SparkSession, name: String): Dataset = Datasets.load(name)

  /** Pure, deterministic instance construction (no Spark needed). */
  def generate(ds: Dataset, eta: Double, tau: Double, seed: Long): Problem = {
    val rnd = new Random(seed)
    val n = ds.rows.length
    val d = ds.attrs.length
    val noiseN = math.floor(n * eta / (1 + eta)).toInt
    val coreN = n - 2 * noiseN
    require(coreN > 0, s"dataset ${ds.name} too small for eta=$eta")

    val perm = rnd.shuffle((0 until n).toVector)
    val coreIdx = perm.slice(0, coreN)
    val srcNoiseIdx = perm.slice(coreN, coreN + noiseN)
    val tgtNoiseIdx = perm.slice(coreN + noiseN, n)

    // --- sample attribute transformations (reject all-transformed) ---
    var funcs: Vector[AttrFunc] = null
    var attempts = 0
    while (funcs == null && attempts < 100) {
      attempts += 1
      val sampled = Vector.tabulate(d) { a =>
        if (rnd.nextDouble() < tau) FuncSampler.sample(ds.domains(a), rnd) else Funcs.Identity
      }
      if (sampled.exists(_.isIdentity)) funcs = sampled
    }
    if (funcs == null) funcs = Vector.tabulate(d)(a =>
      if (a == 0) Funcs.Identity else FuncSampler.sample(ds.domains(a), rnd))

    // --- build snapshots; pk is appended as the last attribute ---
    val m = coreN + noiseN // records per snapshot
    val srcPks = rnd.shuffle((1 to m).toVector)
    val tgtPks = rnd.shuffle((1 to m).toVector)

    def withPk(values: Array[String], pk: Int): Array[String] = {
      val out = new Array[String](d + 1)
      System.arraycopy(values, 0, out, 0, d)
      out(d) = pk.toString
      out
    }

    def transformed(row: Array[String]): Array[String] =
      Array.tabulate(d)(a => funcs(a)(row(a)))

    val source = (coreIdx ++ srcNoiseIdx).zipWithIndex.map { case (ri, pos) =>
      withPk(ds.rows(ri), srcPks(pos))
    }.toArray
    // Target noise is transformed too — its data format must match the core
    // image (§5.1).
    val target = (coreIdx ++ tgtNoiseIdx).zipWithIndex.map { case (ri, pos) =>
      withPk(transformed(ds.rows(ri)), tgtPks(pos))
    }.toArray

    val inst = LocalInstance(ds.attrs :+ "pk", source, target)

    // --- reference explanation ---
    val refNatural = Vector.tabulate(d) { a =>
      funcs(a) match {
        case Funcs.ValueMap(mp) =>
          val coreValues = coreIdx.iterator.map(ri => ds.rows(ri)(a)).toSet
          Funcs.ValueMap(mp.view.filterKeys(coreValues).toMap)
        case f => f
      }
    }
    val pkMap = Funcs.ValueMap(
      (0 until coreN).map(pos => srcPks(pos).toString -> tgtPks(pos).toString).toMap)
    val reference = Explanation(
      funcs = refNatural :+ pkMap,
      alignment = (0 until coreN).map(i => (i, i)).toVector,
      deleted = (coreN until m).toVector,
      inserted = (coreN until m).toVector,
    )

    Problem(ds.name, eta, tau, seed, inst, reference, funcs :+ pkMap, inst.d - 1)
  }

  /** Expose a snapshot as a DataFrame (column `__row` is the local record
    * index) for the Spark components (overlap matcher, diff, oracle tests).
    * It is a local relation over the driver-side rows, so collecting it
    * runs no Spark job.
    */
  def toDf(spark: SparkSession, inst: LocalInstance, side: Array[Array[String]]): DataFrame = {
    val schema = StructType(
      StructField("__row", LongType, nullable = false) +:
        inst.attrs.map(a => StructField(a, StringType, nullable = true)))
    val rows = side.zipWithIndex.map { case (r, i) => Row.fromSeq(i.toLong +: r.toSeq) }
    spark.createDataFrame(rows.toSeq.asJava, schema)
  }
}

/** Samples a random non-identity transformation fitted to an attribute's
  * domain (§5.1, Table 1).
  */
object FuncSampler {

  def sample(domain: Array[String], rnd: Random): AttrFunc = {
    val numeric = domain.nonEmpty && domain.forall(v => Num.parse(v).isDefined)
    val options = mutable.ArrayBuffer.empty[() => AttrFunc]

    // Value mapping: a random permutation of the domain values — the
    // hardest transformation (maximum parameters).
    options += (() => {
      val shuffled = rnd.shuffle(domain.toVector)
      Funcs.ValueMap(domain.toVector.zip(shuffled).toMap)
    })
    // Constant value.
    options += (() => Funcs.Const(domain(rnd.nextInt(domain.length))))

    if (numeric) {
      val magnitudes = Array(1, 2, 5, 7, 10, 25, 100, 500)
      options += (() => {
        val y = BigDecimal(magnitudes(rnd.nextInt(magnitudes.length)) * (if (rnd.nextBoolean()) 1 else -1))
        Funcs.Add(y)
      })
      // Divisors of the form 2^a·5^b keep quotients terminating.
      val divisors = Array(2, 4, 5, 8, 10, 20, 100, 1000)
      options += (() => Funcs.Div(BigDecimal(divisors(rnd.nextInt(divisors.length)))))
      options += (() => Funcs.Mul(BigDecimal(divisors(rnd.nextInt(divisors.length)))))
    } else {
      val token = () => s"${('A' + rnd.nextInt(26)).toChar}${rnd.nextInt(90) + 10}"
      if (domain.exists(v => v.exists(_.isLower)))
        options += (() => Funcs.Upper)
      options += (() => Funcs.Prefix(token()))
      options += (() => Funcs.Suffix(token()))
      val minLen = domain.iterator.map(_.length).min
      if (minLen >= 2)
        options += (() => Funcs.FrontMask(token().take(2)))
      // Prefix replacement on the most common leading character; values not
      // starting with it pass through (the paper's partial-effect case).
      val heads = domain.filter(_.nonEmpty).groupBy(_.head)
      if (heads.nonEmpty) {
        val c = heads.maxBy { case (ch, vs) => (vs.length, -ch.toInt) }._1
        options += (() => Funcs.PrefixReplace(c.toString, token()))
      }
    }
    options(rnd.nextInt(options.size))()
  }
}
