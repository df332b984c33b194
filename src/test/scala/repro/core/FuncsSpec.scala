package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.functions.Funcs._
import repro.core.model.AttrFunc

/** Behaviour and description lengths of every instantiable function. */
class FuncsSpec extends AnyFunSuite {

  test("identity maps any value to itself") {
    assert(Identity("abc") == "abc" && Identity("") == "")
  }
  test("identity has ψ = 0 and isIdentity") {
    assert(Identity.psi == 0 && Identity.isIdentity)
  }
  test("no other function reports isIdentity") {
    assert(!Upper.isIdentity && !Const("x").isIdentity && !Add(BigDecimal(1)).isIdentity)
  }

  test("uppercasing") { assert(Upper("Sap ag") == "SAP AG" && Upper.psi == 0) }
  test("lowercasing") { assert(Lower("SAP") == "sap" && Lower.psi == 0) }

  test("constant value") { assert(Const("k $")("USD") == "k $" && Const("k $").psi == 1) }

  test("addition") { assert(Add(BigDecimal(5))("37") == "42") }
  test("addition with negative parameter subtracts") { assert(Add(BigDecimal(-5))("42") == "37") }
  test("addition passes through non-numerics") { assert(Add(BigDecimal(5))("IBM") == "IBM") }
  test("addition ψ = 1") { assert(Add(BigDecimal(5)).psi == 1) }

  test("division: paper's f_Val on 80000") { assert(Div(BigDecimal(1000))("80000") == "80") }
  test("division: paper's f_Val on 65") { assert(Div(BigDecimal(1000))("65") == "0.065") }
  test("division: paper's f_Val on 6540") { assert(Div(BigDecimal(1000))("6540") == "6.54") }
  test("division: paper's f_Val on 422400") { assert(Div(BigDecimal(1000))("422400") == "422.4") }
  test("division of zero") { assert(Div(BigDecimal(1000))("0") == "0") }
  test("division passes through non-numerics") { assert(Div(BigDecimal(2))("a1") == "a1") }
  test("division by zero is rejected at construction") {
    intercept[IllegalArgumentException](Div(BigDecimal(0)))
  }
  test("multiplication") { assert(Mul(BigDecimal(1000))("6.54") == "6540") }

  test("front masking replaces the first |m| characters") {
    assert(FrontMask("XX")("abcd") == "XXcd")
  }
  test("front masking passes through shorter values") { assert(FrontMask("XXX")("ab") == "ab") }
  test("back masking replaces the last |m| characters") {
    assert(BackMask("XX")("abcd") == "abXX")
  }

  test("front char trimming strips the leading run") { assert(FrontTrim('0')("00710") == "710") }
  test("front char trimming leaves other values") { assert(FrontTrim('0')("710") == "710") }
  test("front char trimming can empty a value") { assert(FrontTrim('0')("000") == "") }
  test("back char trimming strips the trailing run") { assert(BackTrim('0')("71000") == "71") }

  test("prefixing") { assert(Prefix("pre-")("x") == "pre-x") }
  test("suffixing") { assert(Suffix("-post")("x") == "x-post") }

  test("prefix replacement: paper's f_Date") {
    val f = PrefixReplace("9999123", "2018070")
    assert(f("99991231") == "20180701")
  }
  test("prefix replacement otherwise behaves like identity (paper)") {
    assert(PrefixReplace("9999123", "2018070")("20130416") == "20130416")
  }
  test("prefix replacement ψ = 2") { assert(PrefixReplace("a", "b").psi == 2) }
  test("prefix removal") {
    val f = PrefixReplace("pre-", "")
    assert(f("pre-x") == "x" && f("x") == "x")
    assert(f.psi == 2 && f.describe == "prefixReplace(pre-->)")
  }
  test("suffix replacement") { assert(SuffixReplace("inc", "llc")("acme-inc") == "acme-llc") }
  test("suffix removal") {
    val f = SuffixReplace("-x", "")
    assert(f("a-x") == "a" && f("a") == "a")
    assert(f.psi == 2 && f.describe == "suffixReplace(-x->)")
  }

  test("prefix and suffix replacement descriptions name one parameter pair") {
    val pairs = Seq(("a->b", "c"), ("a", "b->c"), ("a\\", "->b"), ("a->\\", "b"), ("a-", ">b"), ("a", "->b"))
    for (make <- Seq[(String, String) => AttrFunc](PrefixReplace(_, _), SuffixReplace(_, _))) {
      val ds = pairs.map(make.tupled).map(_.describe)
      assert(ds.distinct == ds, ds)
    }
    assert(PrefixReplace("a->b", "c").describe == "prefixReplace(a\\->b->c)")
    assert(SuffixReplace("a\\", "b").describe == "suffixReplace(a\\\\->b)")
  }

  test("value mapping applies listed entries") {
    val f = ValueMap(Map("0000" -> "0006", "0001" -> "0001"))
    assert(f("0000") == "0006" && f("0001") == "0001")
  }
  test("value mapping passes through unlisted values") {
    assert(ValueMap(Map("a" -> "b"))("z") == "z")
  }
  test("value mapping ψ counts 2 per entry including identity entries") {
    assert(ValueMap(Map("a" -> "b", "c" -> "c")).psi == 4)
  }
  test("value mapping with a null key lists it first") {
    assert(ValueMap(Map((null: String) -> "a", "b" -> "c")).describe == "map(null->a,b->c)")
    assert(ValueMap(Map("b" -> null, (null: String) -> null, "a" -> "x")).describe == "map(null->null,a->x,b->null)")
  }
  test("paper's f_ID2 has ψ = 26") {
    assert(ValueMap(repro.core.model.RunningExample.id2Map).psi == 26)
  }

  test("boolean negation swaps 0 and 1, keeps dashes") {
    assert(BoolNeg("0") == "1" && BoolNeg("1") == "0" && BoolNeg("-") == "-" && BoolNeg.psi == 0)
  }
}
