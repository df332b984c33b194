package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.core.functions.Funcs._
import repro.core.model.{CodeTable, Costs, LocalInstance, RunningExample}
import repro.core.search._
import repro.gen.{Dataset, ProblemGen}

/** Behavioural tests of the search on small constructed instances. */
class AffidavitSpec extends AnyFunSuite {
  import AffidavitSpec._

  test("identical snapshots are explained at cost 0 with all-identity functions") {
    val i = inst(
      Seq(Seq("a", "1"), Seq("b", "2"), Seq("c", "3")),
      Seq(Seq("c", "3"), Seq("a", "1"), Seq("b", "2")),
      "k", "v")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(1), InitStrategy.Id)
    assert(res.cost == 0.0)
    assert(res.explanation.funcs.forall(_.isIdentity))
    assert(res.explanation.coreSize == 3)
    assert(res.explanation.isValidFor(i))
  }

  test("a candidate kept in two states carries one code table") {
    val toys = (1 to 3).map { seed =>
      val rnd = new Random(seed)
      val rows = Array.fill(60)(Array(
        s"c${rnd.nextInt(4)}", (rnd.nextInt(9) * 10).toString, s"name${rnd.nextInt(12)}", s"x${rnd.nextInt(3)}"))
      (ProblemGen.generate(Dataset("toy", Vector("cat", "num", "name", "x"), rows), 0.3, 0.5, seed).inst, seed.toLong)
    }
    for ((i, seed) <- (RunningExample.instance, 7L) +: toys) {
      val aff = new Affidavit(i, AffidavitConfig.hidConfig(seed))
      val level1 = aff.startStates(InitStrategy.Id).flatMap(aff.extensions).map(_._1)
      val kept = (level1 ++ level1.take(4).flatMap(aff.extensions).map(_._1))
        .flatMap(_.from)
        .collect { case step @ State.Step(_, _, _: CodeTable) => step } // greedy maps are built per state
      val byCandidate = kept.groupBy(step => (step.attr, step.table.asInstanceOf[CodeTable].f.describe))
      assert(byCandidate.values.exists(_.size > 1), byCandidate.keys)
      for ((key, steps) <- byCandidate) assert(steps.forall(_.table eq steps.head.table), key)
    }
  }

  test("a single systematically transformed attribute is learned") {
    val src = (1 to 30).map(i => Seq(s"k$i", (i * 100).toString))
    val tgt = (1 to 30).map(i => Seq(s"k$i", (i * 100 + 7).toString)).reverse
    val i = inst(src, tgt, "key", "num")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(2), InitStrategy.Id)
    assert(res.explanation.coreSize == 30)
    assert(i.attrs.zip(res.explanation.funcs).toMap.apply("num").describe == "add(7)")
  }

  test("deletions and insertions are separated from the aligned core") {
    val src = (1 to 20).map(i => Seq(s"k$i", s"v$i")) ++ Seq(Seq("dead", "x"))
    val tgt = (1 to 20).map(i => Seq(s"k$i", s"v$i")) ++ Seq(Seq("new", "y"), Seq("new2", "z"))
    val i = inst(src, tgt, "key", "val")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(3), InitStrategy.Id)
    assert(res.explanation.coreSize == 20)
    assert(res.explanation.deleted.map(j => i.source(j)(0)) == Vector("dead"))
    assert(res.explanation.inserted.map(j => i.target(j)(0)).toSet == Set("new", "new2"))
  }

  test("a permuted key attribute is resolved with a value mapping") {
    // key is reassigned (reversed), val identifies the records.
    val n = 25
    val src = (1 to n).map(i => Seq(i.toString, s"payload$i"))
    val tgt = (1 to n).map(i => Seq((n + 1 - i).toString, s"payload$i"))
    val i = inst(src, tgt, "pk", "payload")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(4), InitStrategy.Id)
    assert(res.explanation.coreSize == n)
    // Two equal-cost optima exist: map the pk (id payload) or map the
    // payload (id pk). Either way exactly one value mapping carries the
    // permutation and everything is aligned.
    assert(res.explanation.funcs.count(_.isInstanceOf[ValueMap]) == 1)
    assert(res.explanation.funcs.count(_.isIdentity) == 1)
  }

  test("explanations returned by the search are always valid") {
    val src = (1 to 40).map(i => Seq(s"n$i", (i % 7).toString, "USD"))
    val tgt = (1 to 40).map(i => Seq(s"n$i", (i % 7).toString, "k $")).drop(5)
    val i = inst(src, tgt, "name", "grp", "unit")
    for (seed <- 1L to 5L) {
      val res = Affidavit.run(i, AffidavitConfig.hidConfig(seed), InitStrategy.Id)
      assert(res.explanation.isValidFor(i), s"seed $seed")
    }
  }

  test("the found cost never exceeds the trivial explanation's cost") {
    val src = (1 to 15).map(i => Seq(s"a$i", s"${i}"))
    val tgt = (1 to 15).map(i => Seq(s"zz$i", s"${i * 3}"))
    val i = inst(src, tgt, "x", "y")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(5), InitStrategy.Id)
    assert(res.cost <= Costs.trivialCost(i, 0.5))
  }

  test("maxPolls exhaustion falls back to the valid trivial explanation") {
    val i = inst(Seq(Seq("a", "b")), Seq(Seq("c", "d")), "x", "y")
    val res = Affidavit.run(i, AffidavitConfig(maxPolls = 0, seed = 1), InitStrategy.Id)
    assert(res.explanation.coreSize == 0)
    assert(res.explanation.isValidFor(i))
    assert(res.cost == Costs.trivialCost(i, 0.5))
  }

  test("overlap init with empty attribute set degrades to the blank start") {
    val i = inst(Seq(Seq("a")), Seq(Seq("a")), "x")
    val aff = new Affidavit(i, AffidavitConfig(seed = 1))
    assert(aff.startStates(InitStrategy.Overlap(Set.empty)) == aff.startStates(InitStrategy.Blank))
  }

  test("H^id produces one start state per attribute") {
    val i = inst(Seq(Seq("a", "b", "c")), Seq(Seq("a", "b", "c")), "x", "y", "z")
    val aff = new Affidavit(i, AffidavitConfig(seed = 1))
    val starts = aff.startStates(InitStrategy.Id)
    assert(starts.size == 3)
    assert(starts.forall(_.level == 1))
  }

  test("uppercasing transformations are learned") {
    val src = (1 to 25).map(i => Seq(s"k$i", s"name$i"))
    val tgt = (1 to 25).map(i => Seq(s"k$i", s"NAME$i"))
    val i = inst(src, tgt, "key", "name")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(6), InitStrategy.Id)
    assert(i.attrs.zip(res.explanation.funcs).toMap.apply("name").describe == "upper")
    assert(res.explanation.coreSize == 25)
  }

  test("prefixing transformations are learned") {
    val src = (1 to 25).map(i => Seq(s"k$i", s"$i"))
    val tgt = (1 to 25).map(i => Seq(s"k$i", s"ID-$i"))
    val i = inst(src, tgt, "key", "code")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(7), InitStrategy.Id)
    assert(i.attrs.zip(res.explanation.funcs).toMap.apply("code").describe == "prefix(ID-)")
  }

  test("statesEvaluated and polls are reported") {
    val i = inst(Seq(Seq("a")), Seq(Seq("a")), "x")
    val res = Affidavit.run(i, AffidavitConfig(seed = 1), InitStrategy.Id)
    assert(res.polls >= 1 && res.statesEvaluated >= 1)
  }

  test("null and \"null\" are different values: the explanation is valid") {
    val i = inst(Seq(Seq(null)), Seq(Seq("null")), "x")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(1), InitStrategy.Id)
    assert(res.explanation.isValidFor(i))
    assert(res.explanation.coreSize == 0)
    assert(res.cost == Costs.explanationCost(i, res.explanation, 0.5))
  }

  test("nulls in a transformed attribute are explained validly at their true cost") {
    // Every third name is null on both sides; the others are uppercased, so
    // in-block examples include null -> null next to name -> NAME.
    def name(i: Int, f: String => String) = if (i % 3 == 0) null else f(s"name$i")
    val src = (1 to 30).map(i => Seq(s"k$i", name(i, identity)))
    val tgt = (1 to 30).map(i => Seq(s"k$i", name(i, _.toUpperCase))).reverse
    val i = inst(src, tgt, "key", "name")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(8), InitStrategy.Id)
    assert(res.explanation.isValidFor(i))
    assert(res.cost == Costs.explanationCost(i, res.explanation, 0.5))
  }

  test("a greedy map with a null key is explained validly at its true cost") {
    // Every third value is null in S and "z" in T, so the map of `v` takes a
    // null key next to the others.
    val src = (1 to 30).map(i => Seq(s"k$i", if (i % 3 == 0) null else s"v${i % 5}"))
    val tgt = (1 to 30).map(i => Seq(s"k$i", if (i % 3 == 0) "z" else s"w${7 * i % 5}"))
    val i = inst(src, tgt, "k", "v")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(1), InitStrategy.Id)
    assert(res.explanation.funcs(1).asInstanceOf[ValueMap].map.contains(null), res.explanation.funcs)
    assert(res.explanation.isValidFor(i))
    assert(res.cost == Costs.explanationCost(i, res.explanation, 0.5))
  }

  test("edge cases: empty sides, one attribute, duplicate rows, non-ASCII values") {
    for ((name, i) <- edgeCases; init <- Seq(InitStrategy.Id, InitStrategy.Blank)) {
      val res = Affidavit.run(i, AffidavitConfig.hidConfig(3), init)
      assert(res.explanation.isValidFor(i), s"$name $init")
      assert(res.cost == Costs.explanationCost(i, res.explanation, 0.5), s"$name $init")
      assert(Affidavit.run(i, AffidavitConfig.hidConfig(3), init) == res, s"$name $init")
    }
  }

  test("toExplanation: deleted and inserted are ascending and cover what the alignment leaves") {
    val re = RunningExample.instance
    val found = for ((name, i) <- edgeCases :+ ("running example" -> re); init <- Seq(InitStrategy.Id, InitStrategy.Blank))
      yield (s"$name $init", i, Affidavit.run(i, AffidavitConfig.hidConfig(3), init).explanation)
    val e1 = Affidavit.toExplanation(re, RunningExample.e1.funcs.zipWithIndex.foldLeft(State.blank(re.d)) {
      case (h, (f, a)) => h.assign(a, f)
    })
    for ((name, i, e) <- found :+ (("E1's functions", re, e1))) {
      def ascending(xs: Vector[Int]) = xs.sliding(2).forall(p => p.length < 2 || p(0) < p(1))
      assert(ascending(e.deleted) && ascending(e.inserted), name)
      assert(e.deleted.intersect(e.alignment.map(_._1)).isEmpty, name)
      assert(e.inserted.intersect(e.alignment.map(_._2)).isEmpty, name)
      assert((e.deleted ++ e.alignment.map(_._1)).sorted == i.source.indices, name)
      assert((e.inserted ++ e.alignment.map(_._2)).sorted == i.target.indices, name)
    }
  }

  test("values containing U+0001 are explained validly at their true cost") {
    val i = inst(Seq(Seq("x\u0001y", "z")), Seq(Seq("x", "y\u0001z")), "a", "b")
    val res = Affidavit.run(i, AffidavitConfig.hidConfig(1), InitStrategy.Id)
    assert(res.explanation.isValidFor(i))
    assert(res.cost > 0.0)
    assert(res.cost == Costs.explanationCost(i, res.explanation, 0.5))
  }
}

object AffidavitSpec {

  def inst(src: Seq[Seq[String]], tgt: Seq[Seq[String]], attrs: String*): LocalInstance =
    LocalInstance(attrs.toVector, src.map(_.toArray).toArray, tgt.map(_.toArray).toArray)

  /** Real-snapshot shapes the search must handle; `ExplanationApplierSpec`
    * applies the explanations found for them through Spark too.
    */
  val edgeCases: Seq[(String, LocalInstance)] = {
    val rows = Seq(Seq("a", "1"), Seq("b", "2"), Seq("c", "3"))
    Seq(
      "empty S" -> inst(Nil, rows, "x", "y"),
      "empty T" -> inst(rows, Nil, "x", "y"),
      "both empty" -> inst(Nil, Nil, "x", "y"),
      "d = 1" -> inst(Seq(Seq("a"), Seq("b"), Seq("c"), Seq("c")), Seq(Seq("A"), Seq("B"), Seq("C"), Seq("x")), "x"),
      "duplicate rows" -> inst(
        Seq(Seq("k1", "v"), Seq("k1", "v"), Seq("k2", "w"), Seq("k2", "w"), Seq("k3", "u")),
        Seq(Seq("k1", "v"), Seq("k2", "w"), Seq("k2", "w"), Seq("k2", "w"), Seq("k4", "u")),
        "k", "v"),
      "non-ASCII" -> inst(
        (1 to 12).map(j => Seq(s"schlüssel-$j", s"münchen-$j", "日本")),
        (1 to 12).map(j => Seq(s"schlüssel-$j", s"MÜNCHEN-$j", "日本😀")),
        "k", "stadt", "land"),
    )
  }
}
