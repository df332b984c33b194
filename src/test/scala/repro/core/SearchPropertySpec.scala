package repro.core

import scala.util.Random

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers
import repro.core.blocking.LocalBlocking
import repro.core.functions.Funcs
import repro.core.model.{Costs, LocalInstance}
import repro.core.search.{Affidavit, AffidavitConfig, InitStrategy, State}
import repro.gen.{Dataset, ProblemGen}

/** Properties every search result must have, on small random instances:
  * the explanation is valid (Def. 3.5), the reported cost is its c(E)
  * (Def. 3.10), and the same seed gives the same result. They must hold
  * under both start strategies and when the poll budget runs out. Any
  * state completed by `finalizeMaps` is an end state whose cost is c(E) of
  * its explanation. Every state the search derives is priced by counting
  * in its parent's blocking, and that price and the refined blocking equal
  * a full blocking's.
  *
  * c(E) ≤ c(E∅) does not hold: the search returns the first end state it
  * polls, and no step compares it with the trivial explanation. The last
  * test keeps two counterexamples the property found.
  */
class SearchPropertySpec extends AnyFunSuite with PropHelpers {
  import SearchPropertySpec._

  test("property: random tables with nulls, numbers and duplicate rows") {
    checkProp(Prop.forAllNoShrink(randomInstance, search)(holds), minSuccessful = 300)
  }

  test("property: small ProblemGen instances") {
    checkProp(Prop.forAllNoShrink(toyProblem, search)(holds), minSuccessful = 150)
  }

  test("property: an end state costs its explanation") {
    checkProp(Prop.forAllNoShrink(Gen.oneOf(randomInstance, toyProblem), Gen.choose(0L, 1000L))(endStateHolds),
      minSuccessful = 300)
  }

  test("property: a derived state costs what its full blocking costs") {
    checkProp(Prop.forAllNoShrink(Gen.oneOf(randomInstance, toyProblem), Gen.choose(0L, 1000L))(priceHolds),
      minSuccessful = 300)
  }

  test("known defect: the search can return an explanation that costs more than E∅") {
    pendingUntilFixed {
      for ((name, i, seed) <- costlierThanTrivial) {
        val res = Affidavit.run(i, AffidavitConfig.hidConfig(seed), InitStrategy.Blank)
        assert(res.cost <= Costs.trivialCost(i, 0.5), s"$name: ${res.explanation.funcs.map(_.describe)}")
      }
    }
  }
}

object SearchPropertySpec {

  /** Numeric strings, words, `null` and the string "null". */
  private val alphabet = Seq("1", "2", "10", "2.5", "-7", "a", "b", "AB", "null", null)

  private def row(d: Int): Gen[Array[String]] = Gen.listOfN(d, Gen.oneOf(alphabet)).map(_.toArray)

  /** A side of at most 10 rows, some of them repeated. */
  private def side(d: Int): Gen[Vector[Array[String]]] =
    Gen.choose(0, 10).flatMap(n => Gen.listOfN(n, row(d))).flatMap { rows =>
      if (rows.isEmpty) Gen.const(rows.toVector)
      else Gen.listOf(Gen.oneOf(rows)).map(dups => (rows ++ dups).take(10).toVector)
    }

  /** S and T over d ≤ 3 attributes. T mixes copies of source rows, source
    * rows with one cell replaced, and unrelated rows, so some of the
    * instances have a non-empty core.
    */
  val randomInstance: Gen[LocalInstance] = for {
    d <- Gen.choose(1, 3)
    src <- side(d)
    n <- Gen.choose(0, 10)
    fresh = row(d)
    tgt <- Gen.listOfN(n, if (src.isEmpty) fresh else Gen.frequency(
      3 -> Gen.oneOf(src).map(_.clone()),
      2 -> Gen.oneOf(src).flatMap(r => Gen.zip(Gen.choose(0, d - 1), Gen.oneOf(alphabet))
        .map { case (a, v) => r.updated(a, v) }),
      1 -> fresh))
  } yield LocalInstance(Vector.tabulate(d)(a => s"a$a"), src.toArray, tgt.toArray)

  /** A column of numeric strings or of words; `FuncSampler` picks the
    * transformations that fit it.
    */
  private val column: Gen[Int => String] = Gen.oneOf(
    Gen.choose(1, 12).map(k => (i: Int) => ((i * 7) % k * 5).toString),
    Gen.choose(1, 6).map(k => (i: Int) => s"w${(i * 3) % k}x"),
  )

  /** `ProblemGen` instances from toy datasets of 4–30 rows and 1–3
    * natural attributes (plus the permuted `pk`).
    */
  val toyProblem: Gen[LocalInstance] = for {
    d <- Gen.choose(1, 3)
    cols <- Gen.listOfN(d, column)
    n <- Gen.choose(4, 30)
    eta <- Gen.oneOf(0.3, 0.5, 0.7)
    tau <- Gen.oneOf(0.3, 0.5, 0.7)
    seed <- Gen.choose(0L, 10000L)
  } yield {
    val rows = Array.tabulate(n)(i => cols.map(c => c(i)).toArray)
    ProblemGen.generate(Dataset("toy", Vector.tabulate(d)(a => s"a$a"), rows), eta, tau, seed).inst
  }

  /** Start strategy, poll budget (0, 1, 3 or the default) and seed. */
  val search: Gen[(InitStrategy, Int, Long)] = for {
    init <- Gen.oneOf(InitStrategy.Id, InitStrategy.Blank)
    maxPolls <- Gen.oneOf(0, 1, 3, AffidavitConfig().maxPolls)
    seed <- Gen.choose(0L, 1000L)
  } yield (init, maxPolls, seed)

  /** Instances where the H^∅ search (β = 2, ϱ = 5) with the given seed
    * returns value maps costing more than E∅: 4 against 3, and 17 against
    * 12 (a `ProblemGen` instance: the last attribute is `pk`).
    */
  val costlierThanTrivial: Seq[(String, LocalInstance, Long)] = {
    def inst(src: Seq[Seq[String]], tgt: Seq[Seq[String]]) = {
      val d = (src ++ tgt).head.size
      LocalInstance(Vector.tabulate(d)(a => s"a$a"), src.map(_.toArray).toArray, tgt.map(_.toArray).toArray)
    }
    val (x, y) = (Seq("b", "AB", "b"), Seq("a", "b", "b"))
    Seq(
      ("random table", inst(Seq(x, y, y, x, y, y), Seq(Seq(null, "b", null))), 101L),
      ("ProblemGen toy",
        inst(
          Seq(Seq("5", "40", "w2x", "2"), Seq("25", "20", "w1x", "1"), Seq("0", "0", "w0x", "3")),
          Seq(Seq("2.5", "40000", "w2x", "2"), Seq("17.5", "35000", "w3x", "1"), Seq("7.5", "5000", "w4x", "3"))),
        141L),
    )
  }

  /** A state with the identity on a random subset of the attributes,
    * completed by `finalizeMaps`: its cost is c(E) of the explanation
    * built from it, and that explanation is valid.
    */
  def endStateHolds(inst: LocalInstance, seed: Long): Prop = {
    val rnd = new Random(seed)
    val cfg = AffidavitConfig.hidConfig(seed)
    val aff = new Affidavit(inst, cfg)
    val ids = (0 until inst.d).filter(_ => rnd.nextBoolean())
    val h = ids.foldLeft(State.blank(inst.d))((h, a) => h.assign(a, Funcs.Identity))
    val end = aff.finalizeMaps(h, h.undecided, rnd)
    val e = Affidavit.toExplanation(inst, end)
    val clue = s"seed=$seed ids=$ids S=${rows(inst.source)} T=${rows(inst.target)} E=${e.funcs.map(_.describe)}"
    (e.isValidFor(inst) :| s"valid: $clue") &&
      (aff.stateCost(end) == Costs.explanationCost(inst, e, cfg.alpha)) :| s"end state costs c(E): $clue"
  }

  /** The start states under `H^id` and under `H^s` with 2 or more random
    * identity attributes, and their extensions, finalized end states
    * included: each has a parent step, its counted cost is the cost of
    * the same slots blocked in full, and refining its parent by its step
    * gives the full blocking.
    */
  def priceHolds(inst: LocalInstance, seed: Long): Prop = {
    val rnd = new Random(seed)
    val aff = new Affidavit(inst, AffidavitConfig.hidConfig(seed))
    val ids = rnd.shuffle((0 until inst.d).toList).take(2 + rnd.nextInt(inst.d))
    val overlap = if (ids.size >= 2) aff.startStates(InitStrategy.Overlap(ids.toSet)) else Nil
    val starts = aff.startStates(InitStrategy.Id) ++ overlap
    val states = starts ++ starts.filterNot(_.isEnd).flatMap(aff.extensions).map(_._1)
    val clue = s"seed=$seed ids=$ids S=${rows(inst.source)} T=${rows(inst.target)}"
    Prop.all(states.map { h =>
      h.from match {
        case Some(State.Step(parent, attr, table)) =>
          val refined = LocalBlocking.refine(inst, parent, attr, table)
          val full = LocalBlocking.block(inst, h.decided)
          val sameBlocks = Seq((refined.src, full.src), (refined.srcStart, full.srcStart), (refined.tgt, full.tgt),
            (refined.tgtStart, full.tgtStart)).forall { case (x, y) => x.sameElements(y) }
          ((aff.stateCost(h) == aff.stateCost(State(h.slots)())) :| s"counted cost: ${h.signature} $clue") &&
            ((sameBlocks && refined.ct == full.ct && refined.cs == full.cs) :| s"refined blocks: ${h.signature} $clue")
        case None => false :| s"no parent step: ${h.signature} $clue"
      }
    }: _*)
  }

  private def rows(side: Array[Array[String]]) = side.map(_.mkString("(", ",", ")")).mkString(" ")

  def holds(inst: LocalInstance, s: (InitStrategy, Int, Long)): Prop = {
    val (init, maxPolls, seed) = s
    val cfg = AffidavitConfig.hidConfig(seed).copy(maxPolls = maxPolls)
    val res = Affidavit.run(inst, cfg, init)
    val e = res.explanation
    val clue = s"$init maxPolls=$maxPolls seed=$seed S=${rows(inst.source)} T=${rows(inst.target)} " +
      s"cost=${res.cost} E=${e.funcs.map(_.describe)} core=${e.coreSize}"
    (e.isValidFor(inst) :| s"valid: $clue") &&
      (res.cost == Costs.explanationCost(inst, e, cfg.alpha)) :| s"cost is c(E): $clue" &&
      (Affidavit.run(inst, cfg, init) == res) :| s"same seed, same result: $clue"
  }
}
