package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.blocking.{Block, BlockingResult, LocalBlocking}
import repro.core.functions.Funcs._
import repro.core.model.{LocalInstance, RunningExample}

class BlockingSpec extends AnyFunSuite {

  private val inst = RunningExample.instance
  // Figure 3's search state H1 = (∗, ∗, ∗, id, ∗, x ↦ 'k $', id).
  private val h1 = Array((3, Identity: repro.core.model.AttrFunc),
    (5, Const("k $"): repro.core.model.AttrFunc),
    (6, Identity: repro.core.model.AttrFunc))

  test("Figure 3: block κi = (C, k $, SAP) holds S08,S09,S10 vs T08,T10") {
    val blocks = LocalBlocking.block(inst, h1)
    val b = blocks.mixed.find(b => b.src.exists(i => inst.source(i)(0) == "S08")).get
    assert(b.src.map(i => inst.source(i)(0)).toSet == Set("S08", "S09", "S10"))
    assert(b.tgt.map(i => inst.target(i)(0)).toSet == Set("T08", "T10"))
  }

  test("blocking with no decided attributes yields one block with everything") {
    val blocks = LocalBlocking.block(inst, Array.empty)
    assert(blocks.mixed.length == 1)
    assert(blocks.mixed(0).src.length == 17 && blocks.mixed(0).tgt.length == 16)
    assert(blocks.ct == 0 && blocks.cs == 1)
  }

  /** The mixed block holding source record `s`. */
  private def blockOfSource(blocks: BlockingResult, s: Int): Block =
    blocks.mixed.find(_.src.contains(s)).get

  test("source records are indexed through their assigned functions") {
    // S01 = (A, USD, IBM) blocks as (A, k $, IBM): Unit goes through const.
    val b = blockOfSource(LocalBlocking.block(inst, h1), 0)
    assert(b.src.forall(i => inst.source(i)(3) == "A" && inst.source(i)(6) == "IBM"))
    assert(b.src.forall(i => inst.source(i)(5) == "USD"))
    assert(b.tgt.nonEmpty)
    assert(b.tgt.forall(j => inst.target(j)(3) == "A" && inst.target(j)(5) == "k $" && inst.target(j)(6) == "IBM"))
  }

  test("target records are indexed by raw projection") {
    // T01 = (A, k $, IBM) shares S01's block; no target with Unit USD does.
    val blocks = LocalBlocking.block(inst, h1)
    assert(blockOfSource(blocks, 0).tgt.contains(0))
    val usdTargets = inst.target.indices.filter(j => inst.target(j)(5) == "USD")
    assert(usdTargets.forall(j => !blocks.mixed.exists(_.tgt.contains(j))))
  }

  test("every record lands in exactly one block") {
    val blocks = LocalBlocking.block(inst, h1)
    val mixedSrc = blocks.mixed.flatMap(_.src)
    val mixedTgt = blocks.mixed.flatMap(_.tgt)
    assert(mixedSrc.toSet.size == mixedSrc.length && mixedTgt.toSet.size == mixedTgt.length)
    // Records outside mixed blocks count in full: cs and ct hold them on
    // top of the mixed blocks' surpluses.
    assert(blocks.cs - blocks.mixed.map(b => math.max(0, b.src.length - b.tgt.length)).sum == 17 - mixedSrc.length)
    assert(blocks.ct - blocks.mixed.map(b => math.max(0, b.tgt.length - b.src.length)).sum == 16 - mixedTgt.length)
  }

  test("ct counts target surplus per block, cs source surplus") {
    // Two-attribute toy: one block 2 src vs 1 tgt, one block 0 src vs 2 tgt.
    val toy = LocalInstance(
      Vector("a"),
      Array(Array("x"), Array("x")),
      Array(Array("x"), Array("y"), Array("y")))
    val blocks = LocalBlocking.block(toy, Array((0, Identity)))
    assert(blocks.ct == 2)
    assert(blocks.cs == 1)
  }

  test("ct/cs are zero when blocks balance") {
    val toy = LocalInstance(Vector("a"), Array(Array("x")), Array(Array("x")))
    val blocks = LocalBlocking.block(toy, Array((0, Identity)))
    assert(blocks.ct == 0 && blocks.cs == 0)
  }

  test("indeterminacy is the max distinct in-block source values over mixed blocks") {
    val blocks = LocalBlocking.block(inst, h1)
    // In block (C, k $, IBM): sources S06 (21000) and S07 (422400) — Val has 2 values.
    val indVal = LocalBlocking.indeterminacy(inst, blocks, 4)
    assert(indVal >= 2)
    // Type is already decided — its indeterminacy within blocks is 1.
    assert(LocalBlocking.indeterminacy(inst, blocks, 3) == 1)
  }

  test("indeterminacy falls back to global distinct count without mixed blocks") {
    val toy = LocalInstance(
      Vector("a", "b"),
      Array(Array("x", "1"), Array("y", "2")),
      Array(Array("z", "3")))
    val blocks = LocalBlocking.block(toy, Array((0, Identity)))
    assert(blocks.mixed.isEmpty)
    assert(LocalBlocking.indeterminacy(toy, blocks, 1) == 2)
  }

  test("functions change the block key on the source side only") {
    val decided = Array((4, Div(BigDecimal(1000)): repro.core.model.AttrFunc))
    val blocks = LocalBlocking.block(inst, decided)
    // Source S01 Val=80000 ↦ 80 groups with targets whose Val is literally 80.
    val b = blockOfSource(blocks, 0)
    assert(b.tgt.nonEmpty && b.tgt.forall(j => inst.target(j)(4) == "80"))
    assert(b.src.forall(i => inst.source(i)(4) == "80000"))
  }

  test("null and the string \"null\" land in different blocks") {
    val toy = LocalInstance(Vector("a"), Array(Array(null), Array("null")), Array(Array("null"), Array(null)))
    val blocks = LocalBlocking.block(toy, Array((0, Identity)))
    assert(blocks.mixed.map(b => (b.src.toSeq, b.tgt.toSeq)).toSeq == Seq((Seq(0), Seq(1)), (Seq(1), Seq(0))))
  }

  test("values containing U+0001 do not merge blocks") {
    val toy = LocalInstance(Vector("a", "b"), Array(Array("x\u0001y", "z")), Array(Array("x", "y\u0001z")))
    val blocks = LocalBlocking.block(toy, Array((0, Identity), (1, Identity)))
    assert(blocks.mixed.isEmpty)
    assert(blocks.ct == 1 && blocks.cs == 1)
  }
}
