package repro.core.functions

import repro.core.model.{AttrFunc, Num}

/** A meta function: a family of transformations whose parameters are
  * learnable from a single input-output example (§4.4.1).
  *
  * `induceVerified(in, out)` returns every instantiation `f` of the family
  * with `f(in) == out` *and a visible effect* on this example (`in != out`);
  * the only function induced from an unchanged example is the identity. This
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

  /** Instantiations consistent with the single example `in ↦ out`, where
    * `in != out` and neither is `null` (see [[induceVerified]]).
    */
  def induce(in: String, out: String): List[AttrFunc]

  /** `induce` plus the safety check `f(in) == out`.
    *
    * An unchanged example (`in == out`, `null` sides included) induces only
    * the identity. Families learn from the text of their example, which a
    * `null` side does not have, so an example with one `null` side induces
    * nothing. `induce` sees only changed examples without `null`.
    */
  final def induceVerified(in: String, out: String): List[AttrFunc] =
    if (in == out) { if (this eq MetaFunctions.IdentityMeta) List(Funcs.Identity) else Nil }
    else if (in == null || out == null) Nil
    else induce(in, out).filter(f => f(in) == out)
}

object MetaFunctions {
  import Funcs._

  /** Induced by [[MetaFunction.induceVerified]] itself, from unchanged
    * examples only.
    */
  case object IdentityMeta extends MetaFunction {
    val name = "identity"
    def induce(in: String, out: String): List[AttrFunc] = Nil
  }

  case object UpperMeta extends MetaFunction {
    val name = "uppercasing"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in.toUpperCase == out) List(Upper) else Nil
  }

  case object LowerMeta extends MetaFunction {
    val name = "lowercasing"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in.toLowerCase == out) List(Lower) else Nil
  }

  case object ConstMeta extends MetaFunction {
    val name = "constant"
    def induce(in: String, out: String): List[AttrFunc] = List(Const(out))
  }

  case object AddMeta extends MetaFunction {
    val name = "addition"
    def induce(in: String, out: String): List[AttrFunc] =
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
      if (in.length != out.length || in.isEmpty) return Nil
      val l = in.length - commonSuffixLen(in, out)
      if (l >= 1 && l <= out.length) List(FrontMask(out.substring(0, l))) else Nil
    }
  }

  case object BackMaskMeta extends MetaFunction {
    val name = "backMasking"
    def induce(in: String, out: String): List[AttrFunc] = {
      if (in.length != out.length || in.isEmpty) return Nil
      val l = in.length - commonPrefixLen(in, out)
      if (l >= 1 && l <= out.length) List(BackMask(out.substring(out.length - l))) else Nil
    }
  }

  case object FrontTrimMeta extends MetaFunction {
    val name = "frontCharTrimming"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in.isEmpty) Nil else List(FrontTrim(in.charAt(0)))
  }

  case object BackTrimMeta extends MetaFunction {
    val name = "backCharTrimming"
    def induce(in: String, out: String): List[AttrFunc] =
      if (in.isEmpty) Nil else List(BackTrim(in.charAt(in.length - 1)))
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
    * prefix must be non-empty. `z` may be empty (prefix removal). As
    * `in != out` and both end in the common suffix, `y != z`.
    */
  case object PrefixReplaceMeta extends MetaFunction {
    val name = "prefixReplacement"
    def induce(in: String, out: String): List[AttrFunc] = {
      val s = commonSuffixLen(in, out)
      val y = in.substring(0, in.length - s)
      val z = out.substring(0, out.length - s)
      if (s >= 1 && y.nonEmpty) List(PrefixReplace(y, z)) else Nil
    }
  }

  /** Mirror of [[PrefixReplaceMeta]] on the longest common prefix; `z` may
    * be empty (suffix removal).
    */
  case object SuffixReplaceMeta extends MetaFunction {
    val name = "suffixReplacement"
    def induce(in: String, out: String): List[AttrFunc] = {
      val p = commonPrefixLen(in, out)
      val y = in.substring(p)
      val z = out.substring(p)
      if (p >= 1 && y.nonEmpty) List(SuffixReplace(y, z)) else Nil
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
