package repro.core.model

import java.math.MathContext

/** Canonical decimal arithmetic for numeric meta functions.
  *
  * All numeric transformations (addition, multiplication, division) parse
  * and re-render values through this object so that the induced function,
  * the reference transformation used to generate problem instances, and the
  * Spark UDF path all produce byte-identical strings (`65 / 1000` renders as
  * `"0.065"`, `6540 / 1000` as `"6.54"`, `80000 + 0` as `"80000"`).
  */
object Num {

  /** Rounding context for division, which may be non-terminating. */
  val Ctx: MathContext = MathContext.DECIMAL64

  /** Parse a plain decimal string; `None` for anything non-numeric or of
    * pathological length (guards induction against huge tokens).
    */
  def parse(s: String): Option[BigDecimal] =
    if (s == null) None
    else {
      val t = s.trim
      if (isPlainDecimal(t)) Some(BigDecimal(t)) else None
    }

  /** `t` matches `[+-]?[0-9]{1,18}(\.[0-9]{1,12})?` and has at most 24
    * characters. Only ASCII digits count: not `٣`, not `１`.
    */
  private def isPlainDecimal(t: String): Boolean = {
    val n = t.length
    if (n == 0 || n > 24) return false
    def digitsFrom(i: Int): Int = {
      var j = i
      while (j < n && t.charAt(j) >= '0' && t.charAt(j) <= '9') j += 1
      j - i
    }
    val lead = if (t.charAt(0) == '+' || t.charAt(0) == '-') 1 else 0
    val whole = digitsFrom(lead)
    val dot = lead + whole
    if (whole < 1 || whole > 18) false
    else if (dot == n) true
    else if (t.charAt(dot) != '.') false
    else {
      val frac = digitsFrom(dot + 1)
      frac >= 1 && frac <= 12 && dot + 1 + frac == n
    }
  }

  /** Canonical rendering: no trailing zeros, no exponent, `-0 → 0`. */
  def canon(b: BigDecimal): String = {
    val stripped = b.underlying.stripTrailingZeros
    val normalized = if (stripped.scale < 0) stripped.setScale(0) else stripped
    val s = normalized.toPlainString
    if (s == "-0") "0" else s
  }
}
