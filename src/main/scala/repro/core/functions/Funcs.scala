package repro.core.functions

import repro.core.model.{AttrFunc, EncodedAttr, Num}

/** The instantiable function families of Table 1 (plus the inverse variants
  * the paper mentions: suffixing for prefixing, back masking/trimming for
  * front masking/trimming, multiplication for division, lowercasing for
  * uppercasing) and boolean negation used by the NP-hardness reduction.
  *
  * Every function is total: values outside its domain pass through
  * unchanged (see [[repro.core.model.AttrFunc]]).
  */
object Funcs {

  /** `x ↦ x`, ψ = 0. */
  case object Identity extends AttrFunc {
    def apply(x: String): String = x
    val psi = 0
    val describe = "id"
    override def isIdentity: Boolean = true
  }

  /** `x ↦ Uppercase(x)`, ψ = 0. */
  case object Upper extends AttrFunc {
    def apply(x: String): String = if (x == null) x else x.toUpperCase
    val psi = 0
    val describe = "upper"
  }

  /** `x ↦ Lowercase(x)`, ψ = 0 (inverse variant of uppercasing). */
  case object Lower extends AttrFunc {
    def apply(x: String): String = if (x == null) x else x.toLowerCase
    val psi = 0
    val describe = "lower"
  }

  /** `x ↦ c`, ψ = 1. */
  final case class Const(c: String) extends AttrFunc {
    def apply(x: String): String = c
    val psi = 1
    def describe = s"const($c)"
  }

  /** `x ↦ x + y` on numeric values (covers subtraction via negative y), ψ = 1. */
  final case class Add(y: BigDecimal) extends AttrFunc {
    def apply(x: String): String =
      Num.parse(x).map(v => Num.canon(v + y)).getOrElse(x)
    val psi = 1
    def describe = s"add(${Num.canon(y)})"
  }

  /** `x ↦ x · y` on numeric values, ψ = 1 (inverse variant of division). */
  final case class Mul(y: BigDecimal) extends AttrFunc {
    require(y.signum != 0, "multiplication by zero is the constant function")
    def apply(x: String): String =
      Num.parse(x).map(v => Num.canon((v * y).round(Num.Ctx))).getOrElse(x)
    val psi = 1
    def describe = s"mul(${Num.canon(y)})"
  }

  /** `x ↦ x / y` on numeric values, ψ = 1. */
  final case class Div(y: BigDecimal) extends AttrFunc {
    require(y.signum != 0, "division by zero")
    def apply(x: String): String =
      Num.parse(x).map(v => Num.canon(v(Num.Ctx) / y)).getOrElse(x)
    val psi = 1
    def describe = s"div(${Num.canon(y)})"
  }

  /** `.{|m|} ◦ x ↦ m ◦ x` — replace the first |m| characters by m, ψ = 1. */
  final case class FrontMask(m: String) extends AttrFunc {
    require(m.nonEmpty, "empty mask is the identity")
    def apply(x: String): String =
      if (x == null || x.length < m.length) x else m + x.substring(m.length)
    val psi = 1
    def describe = s"frontMask($m)"
  }

  /** `x ◦ .{|m|} ↦ x ◦ m` — replace the last |m| characters by m, ψ = 1. */
  final case class BackMask(m: String) extends AttrFunc {
    require(m.nonEmpty, "empty mask is the identity")
    def apply(x: String): String =
      if (x == null || x.length < m.length) x else x.substring(0, x.length - m.length) + m
    val psi = 1
    def describe = s"backMask($m)"
  }

  /** `[c]* ◦ x ↦ x` — strip the leading run of character c, ψ = 1. */
  final case class FrontTrim(c: Char) extends AttrFunc {
    def apply(x: String): String = {
      if (x == null) return x
      var i = 0
      while (i < x.length && x.charAt(i) == c) i += 1
      if (i == 0) x else x.substring(i)
    }
    val psi = 1
    def describe = s"frontTrim($c)"
  }

  /** `x ◦ [c]* ↦ x` — strip the trailing run of character c, ψ = 1. */
  final case class BackTrim(c: Char) extends AttrFunc {
    def apply(x: String): String = {
      if (x == null) return x
      var i = x.length
      while (i > 0 && x.charAt(i - 1) == c) i -= 1
      if (i == x.length) x else x.substring(0, i)
    }
    val psi = 1
    def describe = s"backTrim($c)"
  }

  /** `x ↦ y ◦ x`, ψ = 1. */
  final case class Prefix(y: String) extends AttrFunc {
    require(y.nonEmpty, "empty prefix is the identity")
    def apply(x: String): String = if (x == null) x else y + x
    val psi = 1
    def describe = s"prefix($y)"
  }

  /** `x ↦ x ◦ y`, ψ = 1. */
  final case class Suffix(y: String) extends AttrFunc {
    require(y.nonEmpty, "empty suffix is the identity")
    def apply(x: String): String = if (x == null) x else x + y
    val psi = 1
    def describe = s"suffix($y)"
  }

  /** `y ◦ x ↦ z ◦ x`, otherwise `x ↦ x` (the paper's `f_Date`), ψ = 2. */
  final case class PrefixReplace(y: String, z: String) extends AttrFunc {
    require(y.nonEmpty, "replaced prefix must be non-empty")
    require(y != z, "equal prefixes are the identity")
    def apply(x: String): String =
      if (x != null && x.startsWith(y)) z + x.substring(y.length) else x
    val psi = 2
    def describe = s"prefixReplace(${escapeArrow(y)}->${escapeArrow(z)})"
  }

  /** `x ◦ y ↦ x ◦ z`, otherwise `x ↦ x`, ψ = 2. */
  final case class SuffixReplace(y: String, z: String) extends AttrFunc {
    require(y.nonEmpty, "replaced suffix must be non-empty")
    require(y != z, "equal suffixes are the identity")
    def apply(x: String): String =
      if (x != null && x.endsWith(y)) x.substring(0, x.length - y.length) + z else x
    val psi = 2
    def describe = s"suffixReplace(${escapeArrow(y)}->${escapeArrow(z)})"
  }

  /** `s` with each backslash and each `->` escaped by a backslash, so
    * `y->z` built from escaped parts names exactly one pair (y, z), and a
    * `describe` with it names one function. Strings without either are
    * unchanged.
    */
  private def escapeArrow(s: String): String = s.replace("\\", "\\\\").replace("->", "\\->")

  /** Explicit value mapping `x_i ↦ y_i`, otherwise `x ↦ x`.
    *
    * ψ = 2 per entry (each entry contributes the parameters x_i and y_i),
    * counting identity entries too — exactly as `f^E1_ID2` in the paper's
    * running example (13 entries → ψ = 26). `describe` lists the entries
    * in key order, a `null` key first.
    */
  final case class ValueMap(map: Map[String, String]) extends AttrFunc {
    def apply(x: String): String = map.getOrElse(x, x)
    def psi: Int = 2 * map.size
    def describe: String = {
      val entries = map.toSeq.sortBy(_._1)(Ordering.comparatorToOrdering(EncodedAttr.ValueOrder))
      val shown = entries.take(4).map { case (k, v) => s"$k->$v" }.mkString(",")
      val more = if (entries.size > 4) s",…(${entries.size} entries)" else ""
      s"map($shown$more)"
    }
  }

  /** Swap the truth values `"0"`/`"1"`, otherwise identity — the second
    * function of the NP-hardness reduction (§3.2), ψ = 0.
    */
  case object BoolNeg extends AttrFunc {
    def apply(x: String): String = x match {
      case "0" => "1"
      case "1" => "0"
      case _   => x
    }
    val psi = 0
    val describe = "boolNeg"
  }
}
