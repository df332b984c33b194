package repro.core.model

/** A problem instance `I = (S, T, A, F)` (Def. 3.1) materialized on the
  * driver for the search inner loop.
  *
  * `source(i)(a)` / `target(j)(a)` is the value of attribute `a` of the
  * i-th source / j-th target record. The candidate set `F` is described
  * implicitly by the meta-function registry the search is configured with;
  * record order carries no information (snapshots are unaligned).
  *
  * The search reads the records through `encoded`, built once here; the
  * rows must not be changed after construction.
  */
final case class LocalInstance(
    attrs: Vector[String],
    source: Array[Array[String]],
    target: Array[Array[String]],
) {
  require(source.forall(_.length == attrs.length), "source arity mismatch")
  require(target.forall(_.length == attrs.length), "target arity mismatch")

  /** The instance dictionary-encoded, one [[EncodedAttr]] per attribute. */
  val encoded: Array[EncodedAttr] = Array.tabulate(attrs.length)(EncodedAttr(source, target, _))

  /** Number of attributes d = |A|. */
  def d: Int = attrs.length

  /** Δ = |S| − |T| (Corollary 4.5). */
  def delta: Int = source.length - target.length
}

/** A valid explanation (Defs. 3.2–3.5) in local index space.
  *
  * @param funcs     the attribute function tuple `F^E`
  * @param alignment core pairs (source index, target index); `F^E` maps each
  *                  pair's source record exactly onto its target record
  * @param deleted   indices of `S^E−`
  * @param inserted  indices of `T^E+`
  */
final case class Explanation(
    funcs: Vector[AttrFunc],
    alignment: Vector[(Int, Int)],
    deleted: Vector[Int],
    inserted: Vector[Int],
) {
  def coreSize: Int = alignment.size

  /** L(F^E) = Σ_a ψ(f_a) (Def. 3.9). */
  def lFuncs: Int = funcs.map(_.psi).sum

  /** Apply `F^E` to one source record. */
  def transform(rec: Array[String]): Array[String] = {
    val out = new Array[String](rec.length)
    var i = 0
    while (i < rec.length) { out(i) = funcs(i)(rec(i)); i += 1 }
    out
  }

  /** Validity per Def. 3.5 against an instance: the deleted/core sets
    * partition S, the inserted set is exactly `T \ F^E(core)`, and every
    * aligned pair is reproduced cell-by-cell by the functions.
    */
  def isValidFor(inst: LocalInstance): Boolean = {
    val coreSrc = alignment.map(_._1).toSet
    val coreTgt = alignment.map(_._2).toSet
    val okPartitions =
      coreSrc.size == alignment.size && coreTgt.size == alignment.size &&
        (coreSrc ++ deleted).size == inst.source.length &&
        deleted.forall(!coreSrc.contains(_)) &&
        (coreTgt ++ inserted).size == inst.target.length &&
        inserted.forall(!coreTgt.contains(_)) &&
        coreSrc.size + deleted.size == inst.source.length &&
        coreTgt.size + inserted.size == inst.target.length
    okPartitions && alignment.forall { case (s, t) =>
      java.util.Arrays.equals(
        transform(inst.source(s)).asInstanceOf[Array[AnyRef]],
        inst.target(t).asInstanceOf[Array[AnyRef]])
    }
  }
}

/** The MDL cost model (Defs. 3.8–3.10, Def. 4.6). */
object Costs {

  /** c(E) = 2α·L(T^E+) + 2(1−α)·L(F^E) with L(T^E+) = |A|·|T^E+|. */
  def explanationCost(d: Int, inserted: Int, lFuncs: Int, alpha: Double): Double =
    2 * alpha * (d.toDouble * inserted) + 2 * (1 - alpha) * lFuncs

  def explanationCost(inst: LocalInstance, e: Explanation, alpha: Double): Double =
    explanationCost(inst.d, e.inserted.size, e.lFuncs, alpha)

  /** Cost of the trivial explanation E∅ (everything deleted + inserted). */
  def trivialCost(inst: LocalInstance, alpha: Double): Double =
    explanationCost(inst.d, inst.target.length, 0, alpha)

  /** Cost of a partial search state — Def. 4.6 with the sign/weight typo
    * fixed (α must weight the record term as in Def. 3.10):
    *
    * `c(H) = 2(1−α)·c_f(H) + 2α·|A|·max(c_t, c_s − Δ)`  (scaleRecords)
    *
    * `scaleRecords = true` prices the record lower bound like
    * `L(T^E+) = |A|·|T^E+|`, so the cost of an end state equals the cost of
    * its explanation and the search optimizes the same objective it is
    * judged by. The paper's literal formula (scaleRecords = false) counts
    * raw records; an A/B over the evaluation datasets (DESIGN.md §3) shows
    * the literal variant under-prices unexplained records at high noise and
    * collapses on several datasets, so the scaled variant is the default.
    */
  def stateCost(
      d: Int,
      cf: Int,
      ct: Int,
      cs: Int,
      delta: Int,
      alpha: Double,
      scaleRecords: Boolean = true,
  ): Double = {
    val records = math.max(ct, cs - delta).max(0).toDouble
    2 * (1 - alpha) * cf + 2 * alpha * (if (scaleRecords) d * records else records)
  }
}
