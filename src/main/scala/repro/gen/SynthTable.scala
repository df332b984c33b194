package repro.gen

import java.time.LocalDate
import java.time.format.DateTimeFormatter
import java.util.Locale

import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.unsafe.types.UTF8String

/** Attribute generators for the synthetic evaluation datasets.
  *
  * Values are deterministic in (attribute name, row id, seed), so every run
  * produces the same dataset content. That content equals what the earlier
  * Spark plan (one `xxhash64` column expression per attribute) produced;
  * `DatasetsSpec` pins it with one SHA-256 per dataset. All columns are
  * strings (the paper's model is untyped value tuples).
  */
sealed trait AttrSpec {
  def name: String

  /** Number of distinct values this spec can produce. */
  def domainSize: Long
}

object AttrSpec {

  /** Categorical attribute over a fixed value list.
    *
    * `uniform = false` (default) draws values with a mild power-law skew
    * like naturally distributed data; `uniform = true` models combinatorial
    * datasets (chess endgames, the exhaustive balance/nursery grids, letter
    * classes) whose values really are equifrequent.
    */
  final case class Cat(name: String, values: Seq[String], uniform: Boolean = false)
      extends AttrSpec {
    require(values.nonEmpty)
    def domainSize: Long = values.size.toLong
  }

  /** Integers `lo .. lo + domain − 1`, rendered in decimal. */
  final case class IntRange(name: String, lo: Int, domain: Int, uniform: Boolean = false)
      extends AttrSpec {
    require(domain >= 1)
    def domainSize: Long = domain.toLong
  }

  /** Fixed-scale decimals `lo + k·step` for `k < steps`, rendered with
    * `scale` fraction digits (e.g. "4.7").
    */
  final case class Dec(name: String, lo: Double, step: Double, steps: Int, scale: Int)
      extends AttrSpec {
    require(steps >= 1 && scale >= 0)
    def domainSize: Long = steps.toLong
  }

  /** Zero-padded code strings `prefix + %0{width}d`. */
  final case class Code(name: String, prefix: String, domain: Int, width: Int) extends AttrSpec {
    // A wider code would have to be cut to `width` digits.
    require(domain >= 1 && width >= 1 && domain <= math.pow(10, width))
    def domainSize: Long = domain.toLong
  }

  /** Dates in yyyyMMdd format within `days` days of `startIso`. */
  final case class DateCol(name: String, startIso: String, days: Int) extends AttrSpec {
    require(days >= 1)
    def domainSize: Long = days.toLong
  }

  /** Skewed integers: value `hot` with probability `hotPct`/100, otherwise
    * uniform over `lo .. lo + domain − 1`. Mimics attributes like adult's
    * capital_gain (mostly 0 plus many rare values), whose rare values are
    * what survives the overlap matcher's block-size filter.
    */
  final case class SkewInt(name: String, hot: Int, hotPct: Int, lo: Int, domain: Int)
      extends AttrSpec {
    require(domain >= 1 && hotPct >= 0 && hotPct <= 100)
    def domainSize: Long = domain.toLong + 1
  }
}

object SynthTable {
  import AttrSpec._

  private val yyyyMMdd = DateTimeFormatter.ofPattern("yyyyMMdd")

  /** Every value `spec` can produce, each rendered once; row `rid`'s cell
    * is `domain(spec)(index(spec, seed)(rid))`.
    */
  def domain(spec: AttrSpec): Array[String] = spec match {
    case Cat(_, values, _) => values.toArray
    case IntRange(_, lo, domain, _) => Array.tabulate(domain)(i => (lo + i).toString)
    case Dec(_, lo, step, steps, scale) =>
      Array.tabulate(steps)(k => s"%.${scale}f".formatLocal(Locale.US, lo + k.toDouble * step))
    case Code(_, prefix, domain, width) =>
      Array.tabulate(domain)(k => prefix + s"%0${width}d".formatLocal(Locale.US, k))
    case DateCol(_, startIso, days) =>
      val start = LocalDate.parse(startIso)
      Array.tabulate(days)(k => start.plusDays(k.toLong).format(yyyyMMdd))
    case SkewInt(_, hot, _, lo, domain) =>
      hot.toString +: Array.tabulate(domain)(i => (lo + i).toString)
  }

  /** Deterministic per-attribute hash stream over the row id: Spark's
    * `xxhash64(attr, rid + seed)`, with the attribute's hash taken once.
    */
  private final class Stream(attr: String, seed: Long) {
    private val attrHash = XXH64.hashUTF8String(UTF8String.fromString(attr), 42L)

    /** Uniform index in [0, n): row `rid`'s hash modulo n. */
    def uniform(rid: Long, n: Int): Int =
      Math.floorMod(XXH64.hashLong(rid + seed, attrHash), n.toLong).toInt

    /** Skewed index in [0, n): `⌊n·u^1.5⌋` for uniform u.
      *
      * Real categorical attributes are rarely uniform; the skew matters for
      * reproduction fidelity. Under a *uniform* distribution a value-mapping
      * permutation leaves every per-value count unchanged, so a wrong `id`
      * assignment on a permuted attribute is invisible to the count-based
      * state-cost bounds (c_t/c_s) and the search happily locks it in —
      * destroying the alignment. With skewed counts the permutation shifts
      * the histogram and wrong `id` states are punished immediately, which
      * is the dynamic the paper's real datasets exhibit. The exponent 1.5 is
      * mild enough that the rarest value of the low-cardinality datasets
      * (chess/letter/nursery) still exceeds the H^s block-size threshold,
      * preserving the paper's H^s failure shape there. `StrictMath.pow` is
      * what Spark's `pow` computed, so the datasets keep their content.
      */
    def skewed(rid: Long, n: Int): Int = {
      val u = (uniform(rid, 100000) + 0.5) / 100000.0
      math.floor(n * StrictMath.pow(u, 1.5)).toInt
    }
  }

  /** The index into `domain(spec)` of row `rid`'s value. */
  private def index(spec: AttrSpec, seed: Long): Long => Int = {
    val h = new Stream(spec.name, seed)
    spec match {
      case Cat(_, _, false) | IntRange(_, _, _, false) => h.skewed(_, spec.domainSize.toInt)
      case SkewInt(name, _, hotPct, _, domain) =>
        val hot = new Stream(name + "!hot", seed)
        rid => if (hot.uniform(rid, 100) < hotPct) 0 else 1 + h.uniform(rid, domain)
      case _ => h.uniform(_, spec.domainSize.toInt)
    }
  }

  /** Generate a dataset: `rows` rows of one string per spec, row id = position. */
  def generate(rows: Int, specs: Seq[AttrSpec], seed: Long): Array[Array[String]] = {
    require(specs.map(_.name).distinct.size == specs.size, "duplicate attribute names")
    val domains = specs.map(domain).toArray
    val indexes = specs.map(index(_, seed)).toArray
    Array.tabulate(rows)(rid => Array.tabulate(specs.size)(a => domains(a)(indexes(a)(rid.toLong))))
  }
}
