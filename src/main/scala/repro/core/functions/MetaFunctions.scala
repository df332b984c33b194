package repro.core.functions

import repro.core.model.{AttrFunc, Num}

/** A meta function: a family of transformations whose parameters are
  * learnable from a single input-output example (§4.4.1).
  *
  * `induce(in, out)` returns every instantiation `f` of the family with
  * `f(in) == out` *and a visible effect* on this example (`in != out`); the
  * only family induced from an unchanged example is the identity. This
  * matches the paper's sampling model: the optimal function is only
  * generated from examples "in which the effect of the optimal function is
  * actually visible", which is what the fraction θ estimates.
  *
  * Every returned instantiation is verified to reproduce the example
  * exactly, so numeric rounding or formatting can never produce a candidate
  * that contradicts its own generating example.
  */
trait MetaFunction extends Serializable {
  def name: String

  /** Instantiations consistent with the single example `in ↦ out`. */
  def induce(in: String, out: String): List[AttrFunc]

  /** `induce` plus the safety check `f(in) == out`.
    *
    * Families learn from the text of their example, which a `null` side
    * does not have, so `induce` never sees one: an example with a `null`
    * side induces only the identity, and only when both sides are `null`.
    */
  final def induceVerified(in: String, out: String): List[AttrFunc] =
    if (in == null || out == null) {
      if (in == null && out == null && (this eq MetaFunctions.IdentityMeta)) List(Funcs.Identity) else Nil
    } else induce(in, out).filter(f => f(in) == out)
}

object MetaFunctions {
  import Funcs._

  case object IdentityMeta extends MetaFunction {
    val name = "identity"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in == out) List(Identity) else Nil
  }

  case object UpperMeta extends MetaFunction {
    val name = "uppercasing"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in != out && in.toUpperCase == out) List(Upper) else Nil
  }

  case object LowerMeta extends MetaFunction {
    val name = "lowercasing"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in != out && in.toLowerCase == out) List(Lower) else Nil
  }

  case object ConstMeta extends MetaFunction {
    val name = "constant"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in != out) List(Const(out)) else Nil
  }

  case object AddMeta extends MetaFunction {
    val name = "addition"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in == out) Nil
      else
        (Num.parse(in), Num.parse(out)) match {
          case (Some(a), Some(b)) => List(Add(b - a))
          case _                  => Nil
        }
  }

  /** Division `x ↦ x/y` with `y = in/out`, and its inverse, multiplication
    * `x ↦ x·y` with `y = out/in`. Both are emitted when defined; their
    * behaviour differs on values where the quotient rounding differs.
    */
  case object DivMulMeta extends MetaFunction {
    val name = "division"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in == out) Nil
      else
        (Num.parse(in), Num.parse(out)) match {
          case (Some(a), Some(b)) if a.signum != 0 && b.signum != 0 =>
            List(Div(a(Num.Ctx) / b), Mul(b(Num.Ctx) / a))
          case _ => Nil
        }
  }

  /** Induces the minimal mask: the first `|in| − lcs(in,out)` characters of
    * `out`, where lcs is the longest common suffix. Requires equal lengths
    * (a mask never changes the length of values at least as long as it).
    */
  case object FrontMaskMeta extends MetaFunction {
    val name = "frontMasking"
    def induce(in: String, out: String): List[AttrFunc] = {
      if (in == out || in.length != out.length || in.isEmpty) return Nil
      val l = in.length - commonSuffixLen(in, out)
      if (l >= 1 && l <= out.length) List(FrontMask(out.substring(0, l))) else Nil
    }
  }

  case object BackMaskMeta extends MetaFunction {
    val name = "backMasking"
    def induce(in: String, out: String): List[AttrFunc] = {
      if (in == out || in.length != out.length || in.isEmpty) return Nil
      val l = in.length - commonPrefixLen(in, out)
      if (l >= 1 && l <= out.length) List(BackMask(out.substring(out.length - l))) else Nil
    }
  }

  case object FrontTrimMeta extends MetaFunction {
    val name = "frontCharTrimming"
    def induce(in: String, out: String): List[AttrFunc] = {
      if (in == out || in.isEmpty) return Nil
      val c = in.charAt(0)
      List(FrontTrim(c)).filter(f => f(in) == out && f(in) != in)
    }
  }

  case object BackTrimMeta extends MetaFunction {
    val name = "backCharTrimming"
    def induce(in: String, out: String): List[AttrFunc] = {
      if (in == out || in.isEmpty) return Nil
      val c = in.charAt(in.length - 1)
      List(BackTrim(c)).filter(f => f(in) == out && f(in) != in)
    }
  }

  case object PrefixMeta extends MetaFunction {
    val name = "prefixing"
    def induce(in: String, out: String): List[AttrFunc] =
      if (out.length > in.length && out.endsWith(in))
        List(Prefix(out.substring(0, out.length - in.length)))
      else Nil
  }

  case object SuffixMeta extends MetaFunction {
    val name = "suffixing"
    def induce(in: String, out: String): List[AttrFunc] =
      if (out.length > in.length && out.startsWith(in))
        List(Suffix(out.substring(in.length)))
      else Nil
  }

  /** Induces from the longest common suffix (must be non-empty, otherwise
    * the example degenerates to a single-entry mapping); the replaced
    * prefix must be non-empty. `z` may be empty (prefix removal).
    */
  case object PrefixReplaceMeta extends MetaFunction {
    val name = "prefixReplacement"
    def induce(in: String, out: String): List[AttrFunc] = {
      if (in == out) return Nil
      val s = commonSuffixLen(in, out)
      val y = in.substring(0, in.length - s)
      val z = out.substring(0, out.length - s)
      if (s >= 1 && y.nonEmpty && y != z && z.nonEmpty) List(PrefixReplace(y, z))
      else if (s >= 1 && y.nonEmpty && z.isEmpty) List(FrontTrimLike(y))
      else Nil
    }
    // Prefix *removal* as a ψ=2 replacement is representable with z = "",
    // but Funcs.PrefixReplace requires a describable non-identity z; reuse
    // a dedicated removal instantiation to keep semantics explicit.
    private def FrontTrimLike(y: String): AttrFunc = PrefixRemove(y)
  }

  /** `y ◦ x ↦ x`, otherwise identity — prefix replacement with z = "". */
  final case class PrefixRemove(y: String) extends AttrFunc {
    require(y.nonEmpty)
    def apply(x: String): String = if (x != null && x.startsWith(y)) x.substring(y.length) else x
    val psi = 2
    def describe = s"prefixReplace($y->)"
  }

  /** `x ◦ y ↦ x`, otherwise identity — suffix replacement with z = "". */
  final case class SuffixRemove(y: String) extends AttrFunc {
    require(y.nonEmpty)
    def apply(x: String): String =
      if (x != null && x.endsWith(y)) x.substring(0, x.length - y.length) else x
    val psi = 2
    def describe = s"suffixReplace($y->)"
  }

  case object SuffixReplaceMeta extends MetaFunction {
    val name = "suffixReplacement"
    def induce(in: String, out: String): List[AttrFunc] = {
      if (in == out) return Nil
      val p = commonPrefixLen(in, out)
      val y = in.substring(p)
      val z = out.substring(p)
      if (p >= 1 && y.nonEmpty && z.nonEmpty && y != z) List(Funcs.SuffixReplace(y, z))
      else if (p >= 1 && y.nonEmpty && z.isEmpty) List(SuffixRemove(y))
      else Nil
    }
  }

  /** Boolean negation — only registered by the 3-SAT reduction. */
  case object BoolNegMeta extends MetaFunction {
    val name = "booleanNegation"
    def induce(in: String, out: String): List[AttrFunc] =
      if ((in == "0" && out == "1") || (in == "1" && out == "0")) List(BoolNeg) else Nil
  }

  /** The default registry: every family of Table 1 (value mappings are not
    * induced example-wise — they are resolved by greedy maps at the end of
    * the search, §4.4.1) plus the inverse variants.
    */
  val default: List[MetaFunction] = List(
    IdentityMeta,
    UpperMeta,
    LowerMeta,
    ConstMeta,
    AddMeta,
    DivMulMeta,
    FrontMaskMeta,
    BackMaskMeta,
    FrontTrimMeta,
    BackTrimMeta,
    PrefixMeta,
    SuffixMeta,
    PrefixReplaceMeta,
    SuffixReplaceMeta,
  )

  private def commonPrefixLen(a: String, b: String): Int = {
    val n = math.min(a.length, b.length)
    var i = 0
    while (i < n && a.charAt(i) == b.charAt(i)) i += 1
    i
  }

  private def commonSuffixLen(a: String, b: String): Int = {
    val n = math.min(a.length, b.length)
    var i = 0
    while (i < n && a.charAt(a.length - 1 - i) == b.charAt(b.length - 1 - i)) i += 1
    i
  }
}
