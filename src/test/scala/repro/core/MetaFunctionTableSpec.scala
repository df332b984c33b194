package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers
import repro.core.functions.Funcs._
import repro.core.functions.MetaFunctions
import repro.core.functions.MetaFunctions._

/** Conformance of the induction machinery to Table 1: every meta function
  * row can be instantiated from a single input-output example, and every
  * induced candidate reproduces its generating example.
  */
class MetaFunctionTableSpec extends AnyFunSuite with PropHelpers {

  test("identity is induced exactly from unchanged examples") {
    assert(IdentityMeta.induceVerified("x", "x") == List(Identity))
    assert(IdentityMeta.induceVerified("x", "y").isEmpty)
  }

  test("unchanged examples induce nothing but identity across the registry") {
    for (m <- MetaFunctions.default)
      if (m != IdentityMeta) assert(m.induceVerified("abc", "abc").isEmpty, m.name)
  }

  test("an example with a null side induces only the identity, from null -> null") {
    for (m <- MetaFunctions.default) {
      assert(m.induceVerified(null, "abc").isEmpty, m.name)
      assert(m.induceVerified("abc", null).isEmpty, m.name)
      assert(m.induceVerified(null, null) == (if (m == IdentityMeta) List(Identity) else Nil), m.name)
    }
  }

  test("uppercasing is induced from a case-changing example") {
    assert(UpperMeta.induceVerified("Sap", "SAP") == List(Upper))
  }
  test("uppercasing is not induced from a non-matching example") {
    assert(UpperMeta.induceVerified("Sap", "IBM").isEmpty)
  }
  test("lowercasing is induced from a case-changing example") {
    assert(LowerMeta.induceVerified("SAP", "sap") == List(Lower))
  }

  test("constant is induced from any changed example") {
    assert(ConstMeta.induceVerified("USD", "k $") == List(Const("k $")))
  }

  test("addition is induced from a numeric example") {
    assert(AddMeta.induceVerified("37", "42") == List(Add(BigDecimal(5))))
  }
  test("addition learns negative parameters") {
    assert(AddMeta.induceVerified("42", "37") == List(Add(BigDecimal(-5))))
  }
  test("addition is not induced from non-numeric examples") {
    assert(AddMeta.induceVerified("IBM", "SAP").isEmpty)
  }

  test("division is induced from the paper's example 65 ↦ 0.065") {
    val fs = DivMulMeta.induceVerified("65", "0.065")
    assert(fs.contains(Div(BigDecimal(1000))))
  }
  test("division's inverse multiplication is induced alongside") {
    val fs = DivMulMeta.induceVerified("65", "0.065")
    assert(fs.exists { case Mul(_) => true; case _ => false })
  }
  test("division candidates always reproduce their example") {
    // 9800 ↦ 9.8, 0 excluded (zero values induce nothing).
    assert(DivMulMeta.induceVerified("9800", "9.8").contains(Div(BigDecimal(1000))))
    assert(DivMulMeta.induceVerified("0", "9.8").isEmpty)
  }

  test("front masking induces the minimal mask") {
    assert(FrontMaskMeta.induceVerified("abcd", "XYcd") == List(FrontMask("XY")))
  }
  test("front masking requires equal lengths") {
    assert(FrontMaskMeta.induceVerified("abc", "XYcd").isEmpty)
  }
  test("back masking induces the minimal mask") {
    assert(BackMaskMeta.induceVerified("abcd", "abXY") == List(BackMask("XY")))
  }

  test("front char trimming is induced from a stripped example") {
    assert(FrontTrimMeta.induceVerified("00710", "710") == List(FrontTrim('0')))
  }
  test("front char trimming rejects partial strips") {
    // Trimming removes the whole run; "0710" cannot come from "00710".
    assert(FrontTrimMeta.induceVerified("00710", "0710").isEmpty)
  }
  test("back char trimming is induced from a stripped example") {
    assert(BackTrimMeta.induceVerified("71000", "71") == List(BackTrim('0')))
  }

  test("prefixing is induced when the output ends with the input") {
    assert(PrefixMeta.induceVerified("42", "ID-42") == List(Prefix("ID-")))
  }
  test("suffixing is induced when the output starts with the input") {
    assert(SuffixMeta.induceVerified("42", "42-A") == List(Suffix("-A")))
  }

  test("prefix replacement is induced from the paper's date example") {
    assert(
      PrefixReplaceMeta.induceVerified("99991231", "20180701") ==
        List(PrefixReplace("9999123", "2018070")))
  }
  test("prefix replacement needs a common suffix") {
    assert(PrefixReplaceMeta.induceVerified("abc", "xyz").isEmpty)
  }
  test("prefix removal is induced when the prefix vanishes") {
    assert(PrefixReplaceMeta.induceVerified("pre-x", "x") == List(PrefixRemove("pre-")))
  }
  test("suffix replacement is induced from a common prefix") {
    assert(
      SuffixReplaceMeta.induceVerified("acme-inc", "acme-llc") ==
        List(SuffixReplace("inc", "llc")))
  }

  test("boolean negation induces only from flipped truth values") {
    assert(BoolNegMeta.induceVerified("0", "1") == List(BoolNeg))
    assert(BoolNegMeta.induceVerified("1", "0") == List(BoolNeg))
    assert(BoolNegMeta.induceVerified("-", "-").isEmpty)
  }

  test("the default registry covers every non-map row of Table 1") {
    val names = MetaFunctions.default.map(_.name).toSet
    val tableRows = Set(
      "identity", "uppercasing", "constant", "addition", "division",
      "frontMasking", "frontCharTrimming", "prefixing", "prefixReplacement")
    assert(tableRows.subsetOf(names))
  }

  test("the default registry includes the paper's inverse variants") {
    val names = MetaFunctions.default.map(_.name).toSet
    assert(Set("lowercasing", "suffixing", "backMasking", "backCharTrimming",
      "suffixReplacement").subsetOf(names))
  }

  test("property: every induced candidate reproduces its generating example") {
    val token = Gen.oneOf(
      Gen.alphaNumStr.map(_.take(10)),
      Gen.chooseNum(-100000L, 100000L).map(_.toString),
      Gen.oneOf("99991231", "0", "k $", "IBM", "00710", ""))
    checkProp(
      Prop.forAll(token, token) { (in, out) =>
        MetaFunctions.default.forall(m => m.induceVerified(in, out).forall(f => f(in) == out))
      },
      minSuccessful = 300)
  }

  test("property: induction never returns duplicate candidates per family") {
    val token = Gen.oneOf(Gen.alphaNumStr.map(_.take(8)), Gen.chooseNum(-999L, 999L).map(_.toString))
    checkProp(Prop.forAll(token, token) { (in, out) =>
      MetaFunctions.default.forall { m =>
        val ds = m.induceVerified(in, out).map(_.describe)
        ds.distinct == ds
      }
    })
  }
}
