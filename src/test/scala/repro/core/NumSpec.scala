package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers
import repro.core.model.Num

class NumSpec extends AnyFunSuite with PropHelpers {

  test("parses plain integers") { assert(Num.parse("80000").contains(BigDecimal(80000))) }
  test("parses negative integers") { assert(Num.parse("-42").contains(BigDecimal(-42))) }
  test("parses decimals") { assert(Num.parse("0.065").contains(BigDecimal("0.065"))) }
  test("parses with surrounding whitespace") { assert(Num.parse(" 7 ").contains(BigDecimal(7))) }
  test("rejects empty string") { assert(Num.parse("").isEmpty) }
  test("rejects null") { assert(Num.parse(null).isEmpty) }
  test("rejects words") { assert(Num.parse("IBM").isEmpty) }
  test("rejects exponent notation") { assert(Num.parse("1e5").isEmpty) }
  test("rejects overlong tokens") { assert(Num.parse("1" * 30).isEmpty) }
  test("rejects lone minus") { assert(Num.parse("-").isEmpty) }
  test("rejects double dots") { assert(Num.parse("1.2.3").isEmpty) }

  test("canon keeps integers plain") { assert(Num.canon(BigDecimal(80000)) == "80000") }
  test("canon strips trailing zeros") { assert(Num.canon(BigDecimal("6.5400")) == "6.54") }
  test("canon renders paper's 65/1000") {
    assert(Num.canon(BigDecimal(65)(Num.Ctx) / 1000) == "0.065")
  }
  test("canon renders paper's 6540/1000") {
    assert(Num.canon(BigDecimal(6540)(Num.Ctx) / 1000) == "6.54")
  }
  test("canon renders paper's 9800/1000") {
    assert(Num.canon(BigDecimal(9800)(Num.Ctx) / 1000) == "9.8")
  }
  test("canon normalizes zero") { assert(Num.canon(BigDecimal("0.000")) == "0") }
  test("canon avoids exponent for large values") {
    assert(Num.canon(BigDecimal("80000").bigDecimal.stripTrailingZeros) == "80000")
  }

  test("property: canon is a fixpoint of parse∘canon") {
    val genNum = Gen.chooseNum(-1000000L, 1000000L).flatMap { i =>
      Gen.chooseNum(0, 4).map(s => BigDecimal(i) / BigDecimal(10).pow(s))
    }
    checkProp(Prop.forAll(genNum) { b =>
      val c = Num.canon(b)
      Num.parse(c).exists(p => Num.canon(p) == c)
    })
  }

  test("rejects non-ASCII digits") {
    assert(Num.parse("\u0663").isEmpty) // Arabic-Indic three
    assert(Num.parse("\uff11").isEmpty) // fullwidth one
    assert(Num.parse("1\u0663").isEmpty)
  }

  test("length limits: 18 whole digits, 12 fraction digits, 24 characters") {
    assert(Num.parse("9" * 18).isDefined && Num.parse("9" * 19).isEmpty)
    assert(Num.parse("1." + "5" * 12).isDefined && Num.parse("1." + "5" * 13).isEmpty)
    assert(Num.parse(" " + "1" * 11 + "." + "2" * 12 + " ").isDefined) // 24 characters once trimmed
    assert(Num.parse("-" + "1" * 11 + "." + "2" * 12).isEmpty) // 25 characters
  }

  test("property: the scanner accepts exactly what the plain-decimal regex accepts") {
    // The check parse made with a regex before it scanned by hand.
    val regex = """[+-]?\d{1,18}(\.\d{1,12})?""".r.pattern
    def byRegex(s: String): Boolean = {
      val t = s.trim
      t.nonEmpty && t.length <= 24 && regex.matcher(t).matches()
    }
    val char = Gen.frequency(
      8 -> Gen.numChar,
      1 -> Gen.oneOf('+', '-'),
      1 -> Gen.const('.'),
      1 -> Gen.oneOf(' ', '\t'),
      1 -> Gen.oneOf('\u0663', '\uff11', '\u0966'), // non-ASCII digits
      1 -> Gen.oneOf('a', 'e', 'E', 'x'))
    val noise = Gen.choose(0, 34).flatMap(Gen.listOfN(_, char)).map(_.mkString)
    // Near-valid shapes around the 18 / 12 / 24 limits.
    val shaped = for {
      sign <- Gen.oneOf("", "+", "-")
      whole <- Gen.choose(0, 20)
      frac <- Gen.oneOf(Gen.const(-1), Gen.choose(0, 14))
      pad <- Gen.oneOf("", " ", "\t", " \n")
      digits <- Gen.listOfN(whole + math.max(frac, 0), Gen.frequency(20 -> Gen.numChar, 1 -> char))
    } yield {
      val (w, f) = digits.mkString.splitAt(whole)
      pad + sign + w + (if (frac < 0) "" else "." + f) + pad
    }
    checkProp(Prop.forAll(Gen.oneOf(noise, shaped)) { s =>
      Num.parse(s).isDefined == byRegex(s)
    }, minSuccessful = 5000)
  }

  test("property: parse accepts what canon emits") {
    val genNum = Gen.chooseNum(-100000L, 100000L).map(BigDecimal(_))
    checkProp(Prop.forAll(genNum)(b => Num.parse(Num.canon(b)).contains(b)))
  }
}
