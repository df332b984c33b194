package repro.core

import scala.collection.mutable
import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.core.blocking.{BlockingResult, LocalBlocking}
import repro.core.functions.Funcs._
import repro.core.model.{AttrFunc, CodeTable, EncodedAttr, LocalInstance, RunningExample}
import repro.core.search.{Affidavit, AffidavitConfig, LcgRandom, Sampling, State}
import repro.gen.{Dataset, ProblemGen}

/** The encoded blocking engine and the costs counted on it against a plain
  * oracle that groups records by the `Vector[String]` of their projected
  * values; and the search's sampling (its generator, draws, greedy maps and
  * indeterminacy) against the plain versions it must equal.
  */
class BlockingOracleSpec extends AnyFunSuite {

  /** Φ_H as the search reads it: the mixed blocks as (sources, targets), in
    * order, then `ct` and `cs`.
    */
  private type View = (Seq[(Seq[Int], Seq[Int])], Int, Int)

  /** The oracle's [[View]]: blocks in order of their first record (sources
    * before targets, each by ascending index), so mixed blocks come
    * ascending by first source; `ct`/`cs` sum every block's surpluses.
    */
  private def oracleView(inst: LocalInstance, decided: Array[(Int, AttrFunc)]): View = {
    val m = mutable.LinkedHashMap.empty[Vector[String], (mutable.ArrayBuffer[Int], mutable.ArrayBuffer[Int])]
    def cell(k: Vector[String]) = m.getOrElseUpdate(k, (mutable.ArrayBuffer.empty, mutable.ArrayBuffer.empty))
    inst.source.indices.foreach(i => cell(decided.toVector.map { case (a, f) => f(inst.source(i)(a)) })._1 += i)
    inst.target.indices.foreach(j => cell(decided.toVector.map { case (a, _) => inst.target(j)(a) })._2 += j)
    val blocks = m.valuesIterator.map { case (s, t) => (s.toSeq, t.toSeq) }.toSeq
    (
      blocks.filter { case (s, t) => s.nonEmpty && t.nonEmpty },
      blocks.map { case (s, t) => math.max(0, t.size - s.size) }.sum,
      blocks.map { case (s, t) => math.max(0, s.size - t.size) }.sum)
  }

  /** The engine's [[View]], once its flat layout is checked: on either
    * side the starts begin at 0, strictly increase and end at the side's
    * length, and each block's range is ascending; the lazy views and
    * `pairs` agree with the blocks.
    */
  private def view(b: BlockingResult): View = {
    for ((start, side) <- Seq((b.srcStart, b.src), (b.tgtStart, b.tgt))) {
      assert(start.length == b.size + 1 && start(0) == 0 && start(b.size) == side.length)
      for (i <- 0 until b.size) {
        assert(start(i) < start(i + 1))
        val range = side.slice(start(i), start(i + 1)).toSeq
        assert(range == range.sorted.distinct)
      }
    }
    def expand(start: Array[Int]) = (0 until b.size).flatMap(i => Seq.fill(start(i + 1) - start(i))(i))
    assert(b.sourceBlock.toSeq == expand(b.srcStart))
    assert(b.targetBlock.toSeq == expand(b.tgtStart))
    assert(b.bySourceCount.toSeq == (0 until b.size).sortBy(i => -(b.srcStart(i + 1) - b.srcStart(i))))
    assert(b.pairs(b.src, b.tgt).toSeq == b.mixed.toSeq.flatMap(m => m.src.zip(m.tgt)))
    (b.mixed.toSeq.map(b => (b.src.toSeq, b.tgt.toSeq)), b.ct, b.cs)
  }

  private def engineView(inst: LocalInstance, decided: Array[(Int, AttrFunc)]): View =
    view(LocalBlocking.block(inst, decided))

  /** Functions worth trying on attribute `a`: identity, a constant no
    * record holds, additions, a map over some of the attribute's values
    * (`null` among them) and whatever `extra` holds.
    */
  private def funcsFor(inst: LocalInstance, a: Int, rnd: Random, extra: Seq[AttrFunc]): Seq[AttrFunc] = {
    val values = (inst.source.map(_(a)) ++ inst.target.map(_(a))).distinct
    def value() = values(rnd.nextInt(values.length))
    val map = ValueMap(Seq.fill(3)(value() -> value()).toMap)
    Seq(Identity, Const("never-seen"), Const(values.head), Add(BigDecimal(1)), Add(BigDecimal(-0.5)), map) ++ extra
  }

  /** Random decided assignments over `inst`, each checked against the
    * oracle, and every one-attribute extension's refined cost checked
    * against the cost of the extended state.
    */
  private def checkInstance(inst: LocalInstance, rnd: Random, extra: Int => Seq[AttrFunc], rounds: Int): Unit = {
    val aff = new Affidavit(inst, AffidavitConfig(seed = 1))
    for (_ <- 1 to rounds) {
      val h = randomState(inst, rnd, extra)
      assert(engineView(inst, h.decided) == oracleView(inst, h.decided), h.signature)
      val blocking = LocalBlocking.block(inst, h.decided)
      for (a <- h.undecided; f <- funcsFor(inst, a, rnd, extra(a))) {
        val ext = h.assign(a, f)
        assert(aff.refinedCost(h, blocking, a, f) == aff.stateCost(ext), ext.signature)
      }
    }
  }

  private def randomState(inst: LocalInstance, rnd: Random, extra: Int => Seq[AttrFunc]): State = {
    var h = State.blank(inst.d)
    for (a <- 0 until inst.d if rnd.nextDouble() < 0.4) {
      val fs = funcsFor(inst, a, rnd, extra(a))
      h = h.assign(a, fs(rnd.nextInt(fs.length)))
    }
    h
  }

  /** `refine(block(D), a, f)` against `block(D :+ (a, f))` for random D and
    * every one-attribute extension. All refinements of an instance share
    * one code table per (attribute, function), as a search run shares one
    * per candidate, and each table is used again on a second parent (the
    * blank state's blocking), so tables already filled by an earlier call
    * must give the same blocks.
    */
  private def checkRefine(inst: LocalInstance, rnd: Random, extra: Int => Seq[AttrFunc], rounds: Int): Unit = {
    val shared = mutable.HashMap.empty[(Int, AttrFunc), CodeTable]
    def tables(a: Int, f: AttrFunc) = shared.getOrElseUpdate((a, f), new CodeTable(inst.encoded(a), f))
    val root = LocalBlocking.block(inst, Array.empty[(Int, AttrFunc)])
    for (_ <- 1 to rounds) {
      val h = randomState(inst, rnd, extra)
      val blocking = LocalBlocking.block(inst, h.decided)
      for (a <- h.undecided; f <- funcsFor(inst, a, rnd, extra(a))) {
        val refined = LocalBlocking.refine(inst, blocking, a, tables(a, f))
        val extended = h.decided :+ ((a, f))
        assert(view(refined) == engineView(inst, extended), h.assign(a, f).signature)
        assert(view(refined) == oracleView(inst, extended), h.assign(a, f).signature)
        assert(view(LocalBlocking.refine(inst, root, a, tables(a, f))) == engineView(inst, Array((a, f))))
      }
    }
  }

  /** On random states: the greedy map `Affidavit#extensions` costs on codes
    * costs what the `ValueMap` that `Sampling.greedyMap` builds from the same
    * alignment costs, refining by its codes gives the blocks a table over
    * that `ValueMap` gives, and `finalizeMaps` assigns the maps
    * `Sampling.greedyMap` builds from the alignments it draws.
    */
  private def checkGreedy(inst: LocalInstance, rnd: Random, extra: Int => Seq[AttrFunc], rounds: Int): Unit = {
    val aff = new Affidavit(inst, AffidavitConfig(seed = 1))
    for (_ <- 1 to rounds) {
      val h = randomState(inst, rnd, extra)
      val blocking = LocalBlocking.block(inst, h.decided)
      val alignment = Sampling.randomAlignment(blocking, rnd)
      for (a <- h.undecided) {
        val g = Sampling.greedyMap(inst, alignment, a)
        assert(aff.greedyMapCost(h, blocking, a, alignment) == aff.refinedCost(h, blocking, a, g), s"$a ${h.signature}")
        val codes = Sampling.greedyCodes(inst.encoded(a), alignment)
        assert(view(LocalBlocking.refine(inst, blocking, a, codes)) ==
          view(LocalBlocking.refine(inst, blocking, a, new CodeTable(inst.encoded(a), codes.valueMap))), s"$a ${h.signature}")
      }
      val seed = rnd.nextLong()
      val end = aff.finalizeMaps(h, h.undecided, new Random(seed))
      val replay = new Random(seed)
      val expected = h.undecided.foldLeft(h) { (cur, a) =>
        val alignment = Sampling.randomAlignment(LocalBlocking.block(inst, cur.decided), replay)
        cur.assign(a, Sampling.greedyMap(inst, alignment, a))
      }
      assert(end.slots == expected.slots, h.signature)
    }
  }

  private val runningExampleFuncs: Int => Seq[AttrFunc] = {
    case 2 => Seq(PrefixReplace("9999123", "2018070"))
    case 4 => Seq(Div(BigDecimal(1000)))
    case 5 => Seq(Const("k $"))
    case _ => Seq(Upper)
  }

  /** Instances generated from a small table whose last attribute holds
    * values with U+0001 in them, each with the functions it was made with.
    * Drawn from `rnd` one at a time, between the checks that use them.
    */
  private def generatedInstances(rnd: Random): Iterator[(LocalInstance, Int => Seq[AttrFunc])] =
    (1 to 6).iterator.map { seed =>
      val rows = Array.fill(60)(Array(
        s"c${rnd.nextInt(4)}",
        (rnd.nextInt(9) * 10).toString,
        s"name${rnd.nextInt(12)}",
        s"x${rnd.nextInt(3)}\u0001${rnd.nextInt(2)}"))
      val p = ProblemGen.generate(Dataset("toy", Vector("cat", "num", "name", "sep"), rows), 0.3, 0.5, seed)
      (p.inst, (a: Int) => Seq(p.appliedFuncs.lift(a).getOrElse(Identity)))
    }

  /** Random tables over `null`, `"null"` and values with U+0001 in them. */
  private def nullTables(rnd: Random): Iterator[LocalInstance] = {
    val values = Array[String](null, "null", "a", "1", "2", "x\u0001", "\u0001")
    def table(n: Int) = Array.fill(n)(Array.fill(3)(values(rnd.nextInt(values.length))))
    Iterator.fill(10)(LocalInstance(Vector("a", "b", "c"), table(1 + rnd.nextInt(12)), table(rnd.nextInt(12))))
  }

  test("running example: blocks and refined costs match the oracle") {
    checkInstance(RunningExample.instance, new Random(11), runningExampleFuncs, rounds = 40)
  }

  test("generated instances: blocks and refined costs match the oracle") {
    val rnd = new Random(5)
    for ((inst, funcs) <- generatedInstances(rnd)) checkInstance(inst, rnd, funcs, rounds = 15)
  }

  test("random tables with null and \"null\": blocks and refined costs match the oracle") {
    val rnd = new Random(9)
    for (inst <- nullTables(rnd)) checkInstance(inst, rnd, _ => Seq(Upper, Const(null)), rounds = 8)
  }

  test("refining by one attribute equals blocking on the extended assignment") {
    checkRefine(RunningExample.instance, new Random(12), runningExampleFuncs, rounds = 20)
    val rnd = new Random(6)
    for ((inst, funcs) <- generatedInstances(rnd)) checkRefine(inst, rnd, funcs, rounds = 8)
    for (inst <- nullTables(rnd)) checkRefine(inst, rnd, _ => Seq(Upper, Const(null)), rounds = 6)
  }

  test("greedy maps costed on codes cost what their value maps cost; finalize assigns them") {
    checkGreedy(RunningExample.instance, new Random(13), runningExampleFuncs, rounds = 20)
    val rnd = new Random(7)
    for ((inst, funcs) <- generatedInstances(rnd)) checkGreedy(inst, rnd, funcs, rounds = 8)
    for (inst <- nullTables(rnd)) checkGreedy(inst, rnd, _ => Seq(Upper, Const(null)), rounds = 6)
  }

  test("sources of one mixed block whose outputs are distinct and outside the dictionary count in cs") {
    // Under k = id all records share one mixed block; add(1) maps 10 and 20
    // to 11 and 21, two different values no record holds.
    val inst = LocalInstance(
      Vector("k", "v"),
      Array(Array("a", "10"), Array("a", "20"), Array("a", "30")),
      Array(Array("a", "31"), Array("a", "50")))
    val h = State.blank(2).assign(0, Identity)
    val parent = LocalBlocking.block(inst, h.decided)
    assert(parent.mixed.length == 1)
    val refined = LocalBlocking.refine(inst, parent, 1, new CodeTable(inst.encoded(1), Add(BigDecimal(1))))
    assert(view(refined) == (Seq((Seq(2), Seq(0))), 1, 2))
    assert(!refined.mixed.exists(b => b.src.contains(0) || b.src.contains(1)))
    assert(view(refined) == oracleView(inst, h.decided :+ ((1, Add(BigDecimal(1))))))
    val aff = new Affidavit(inst, AffidavitConfig(seed = 1))
    assert(aff.refinedCost(h, parent, 1, Add(BigDecimal(1))) == aff.stateCost(h.assign(1, Add(BigDecimal(1)))))
  }

  test("shuffle permutes and draws like Random.shuffle") {
    for (seed <- 1 to 20; n <- Seq(0, 1, 2, 3, 10, 257)) {
      val xs = Array.tabulate(n)(i => i * 7 + 1)
      val a = new Random(seed)
      val b = new Random(seed)
      assert(Sampling.shuffle(xs, a).toSeq == b.shuffle(xs.toVector))
      assert(a.nextLong() == b.nextLong())
    }
  }

  private val seeds = Seq(0L, 1L, 7L, 42L, -1L, -7L, -123456789012L, Long.MinValue, Long.MaxValue)

  test("LcgRandom draws java.util.Random's numbers, rejection loop included") {
    // 64 is a power of two; (1 << 30) + 1 rejects about half of its draws.
    val bounds = Seq(1, 2, 3, 5, 7, 10, 64, 91, 139, 1000, (1 << 30) + 1, Int.MaxValue)
    for (seed <- seeds) {
      val expected = new java.util.Random(seed)
      val lcg = new LcgRandom(seed)
      for (_ <- 1 to 50; bound <- bounds) assert(lcg.nextInt(bound) == expected.nextInt(bound), s"seed $seed bound $bound")
      assert(lcg.nextLong() == expected.nextLong())
      assert(lcg.nextDouble() == expected.nextDouble())
      assert(lcg.nextInt() == expected.nextInt())
      lcg.setSeed(seed + 1)
      expected.setSeed(seed + 1)
      assert(lcg.nextInt(1000) == expected.nextInt(1000))
    }
  }

  test("draw takes shuffle's first k positions with the same draws, on either generator") {
    for (seed <- seeds; n <- Seq(0, 1, 2, 10, 91, 500); k <- Seq(0, 1, 5, 91, 139) if k <= n) {
      val a = new Random(seed)
      val b = new Random(new LcgRandom(seed))
      val c = new Random(new LcgRandom(seed))
      val expected = Sampling.shuffle(Array.range(0, n), a).take(k).toSeq
      assert(Sampling.draw(n, k, b).toSeq == expected, s"seed $seed n $n k $k")
      assert(Sampling.shuffle(Array.range(0, n), c).take(k).toSeq == expected)
      val next = a.nextInt(1 << 20)
      assert(b.nextInt(1 << 20) == next && c.nextInt(1 << 20) == next)
    }
  }

  /** The greedy map by sorting the packed (source code, target code) pairs:
    * equal pairs form runs, the runs of one source code come in target code
    * order, and the first longest run wins. Returns the keys and values.
    */
  private def sortedGreedyCodes(col: EncodedAttr, alignment: Array[(Int, Int)]): (Seq[Int], Seq[Int]) = {
    val pairs = alignment.map { case (s, t) => (col.src(s).toLong << 32) | col.tgt(t).toLong }
    java.util.Arrays.sort(pairs)
    val keys = mutable.ArrayBuffer.empty[Int]
    val values = mutable.ArrayBuffer.empty[Int]
    var i = 0
    while (i < pairs.length) {
      val sv = (pairs(i) >>> 32).toInt
      var best = -1
      var bestCount = 0
      while (i < pairs.length && (pairs(i) >>> 32).toInt == sv) {
        val pair = pairs(i)
        var run = 0
        while (i < pairs.length && pairs(i) == pair) { run += 1; i += 1 }
        if (run > bestCount) { best = pair.toInt; bestCount = run }
      }
      keys += sv
      values += best
    }
    (keys.toSeq, values.toSeq)
  }

  test("greedy maps by counting equal the sort-based greedy maps") {
    val rnd = new Random(17)
    val instances = generatedInstances(rnd).map(_._1) ++ nullTables(rnd) ++ Iterator(RunningExample.instance)
    for (inst <- instances; round <- 1 to 6) {
      // Block-respecting alignments, and arbitrary ones over few records,
      // where ties and codes with a single pair are common.
      val alignment =
        if (round % 2 == 0) Sampling.randomAlignment(LocalBlocking.block(inst, randomState(inst, rnd, _ => Nil).decided), rnd)
        else if (inst.target.isEmpty) Array.empty[(Int, Int)]
        else Array.fill(rnd.nextInt(2 * inst.source.length + 1))(
          (rnd.nextInt(inst.source.length), rnd.nextInt(inst.target.length)))
      for (a <- 0 until inst.d) {
        val col = inst.encoded(a)
        val g = Sampling.greedyCodes(col, alignment)
        val (keys, values) = sortedGreedyCodes(col, alignment)
        assert((g.keys.toSeq, g.values.toSeq) == ((keys, values)), s"attribute $a")
        assert(g.valueMap == ValueMap(keys.zip(values).map { case (k, v) => col.dict(k) -> col.dict(v) }.toMap))
        assert(Sampling.greedyMap(inst, alignment, a) == g.valueMap)
      }
    }
  }

  test("indeterminacy scanned from the largest block is the maximum over every mixed block") {
    def fullScan(inst: LocalInstance, b: BlockingResult, a: Int): Int =
      if (b.mixed.isEmpty) inst.encoded(a).srcDistinct
      else b.mixed.map(m => m.src.map(inst.source(_)(a)).distinct.length).max
    def check(inst: LocalInstance, b: BlockingResult): Unit =
      for (a <- 0 until inst.d) assert(LocalBlocking.indeterminacy(inst, b, a) == fullScan(inst, b, a), s"attribute $a")
    val rnd = new Random(19)
    val nullFuncs: Int => Seq[AttrFunc] = _ => Seq(Upper, Const(null))
    val instances = generatedInstances(rnd) ++ nullTables(rnd).map((_, nullFuncs)) ++
      Iterator((RunningExample.instance, runningExampleFuncs))
    var withoutMixed = 0
    for ((inst, funcs) <- instances; _ <- 1 to 6) {
      val h = randomState(inst, rnd, funcs)
      val blocking = LocalBlocking.block(inst, h.decided)
      check(inst, blocking)
      for (a <- h.undecided; f <- funcsFor(inst, a, rnd, funcs(a))) {
        val refined = LocalBlocking.refine(inst, blocking, a, new CodeTable(inst.encoded(a), f))
        check(inst, refined)
        if (refined.mixed.isEmpty) withoutMixed += 1
      }
    }
    assert(withoutMixed > 0) // the fallback to srcDistinct was exercised
  }
}
