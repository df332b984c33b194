package repro.core.blocking

import repro.core.model.{AttrFunc, CodeTable, EncodedAttr, LocalInstance, Marks}

/** One block of the blocking result Φ_H (Def. 4.4): the source and target
  * record indices, each ascending, that share a blocking index κ under the
  * current state.
  */
final case class Block(src: Array[Int], tgt: Array[Int]) {
  def isMixed: Boolean = src.length > 0 && tgt.length > 0
}

/** The full blocking result plus the state-cost lower bounds derived from
  * it (§4.5): `ct` counts target records that can no longer be aligned,
  * `cs` counts source records that can no longer be aligned. `mixed` holds
  * the blocks with both sources and targets, in block order.
  */
final class BlockingResult private[blocking] (val blocks: Array[Block], val mixed: Array[Block]) {

  def ct: Int = {
    var acc = 0
    var i = 0
    while (i < blocks.length) {
      val b = blocks(i)
      if (b.tgt.length > b.src.length) acc += b.tgt.length - b.src.length
      i += 1
    }
    acc
  }

  def cs: Int = {
    var acc = 0
    var i = 0
    while (i < blocks.length) {
      val b = blocks(i)
      if (b.src.length > b.tgt.length) acc += b.src.length - b.tgt.length
      i += 1
    }
    acc
  }
}

/** In-memory blocking engine over the dictionary-encoded instance. */
object LocalBlocking {

  /** Build Φ_H for the given decided (attribute index, function) pairs: two
    * records share a block when they agree on every decided attribute, with
    * the assigned function applied on the source side (Def. 4.3).
    *
    * Blocks are found by partition refinement: all records start in one
    * block, and each decided attribute splits every block by the record's
    * code, (parent block, code) ↦ child — the step [[refine]] takes once.
    * Children are numbered in order of first occurrence, sources before
    * targets and each by ascending index, so blocks come out in order of
    * their first record, whatever order the attributes are refined in. With
    * no decided attributes every record falls into the single empty-index
    * block.
    */
  def block(inst: LocalInstance, decided: Array[(Int, AttrFunc)]): BlockingResult = {
    val ns = inst.source.length
    val nt = inst.target.length
    if (ns + nt == 0) return new BlockingResult(Array.empty, Array.empty)
    val srcBlock = new Array[Int](ns)
    val tgtBlock = new Array[Int](nt)
    var nBlocks = 1
    val children = new LongIntMap(ns + nt)
    for ((a, f) <- decided) {
      val col = inst.encoded(a)
      nBlocks = split(col, new CodeTable(col, f), srcBlock, tgtBlock, children)
    }
    result(srcBlock, tgtBlock, nBlocks)
  }

  /** Φ_H of a state one assignment `attr ↦ f` below the state whose
    * blocking is `parent`, where `table` applies `f` to `attr`: one O(N)
    * pass that splits every parent block by code. Equal, block for block and
    * in order, to [[block]] over the parent's decided pairs plus
    * `(attr, f)`.
    */
  def refine(inst: LocalInstance, parent: BlockingResult, attr: Int, table: CodeTable): BlockingResult = {
    val srcBlock = new Array[Int](inst.source.length)
    val tgtBlock = new Array[Int](inst.target.length)
    var b = 0
    while (b < parent.blocks.length) {
      val block = parent.blocks(b)
      var i = 0
      while (i < block.src.length) { srcBlock(block.src(i)) = b; i += 1 }
      var j = 0
      while (j < block.tgt.length) { tgtBlock(block.tgt(j)) = b; j += 1 }
      b += 1
    }
    val children = new LongIntMap(srcBlock.length + tgtBlock.length)
    result(srcBlock, tgtBlock, split(inst.encoded(attr), table, srcBlock, tgtBlock, children))
  }

  /** One refinement step in place: each record's block becomes the child
    * (its block, its code under `table`), numbered by first occurrence.
    * Returns the number of children.
    */
  private def split(
      col: EncodedAttr,
      table: CodeTable,
      srcBlock: Array[Int],
      tgtBlock: Array[Int],
      children: LongIntMap,
  ): Int = {
    children.clear()
    var i = 0
    while (i < srcBlock.length) {
      srcBlock(i) = children.getOrAdd(pack(srcBlock(i), table(col.src(i))))
      i += 1
    }
    var j = 0
    while (j < tgtBlock.length) {
      tgtBlock(j) = children.getOrAdd(pack(tgtBlock(j), col.tgt(j)))
      j += 1
    }
    children.size
  }

  private def result(srcBlock: Array[Int], tgtBlock: Array[Int], nBlocks: Int): BlockingResult = {
    val srcs = members(srcBlock, nBlocks)
    val tgts = members(tgtBlock, nBlocks)
    val blocks = new Array[Block](nBlocks)
    val mixed = Array.newBuilder[Block]
    var b = 0
    while (b < nBlocks) {
      blocks(b) = Block(srcs(b), tgts(b))
      if (blocks(b).isMixed) mixed += blocks(b)
      b += 1
    }
    new BlockingResult(blocks, mixed.result())
  }

  private def pack(block: Int, code: Int): Long = (block.toLong << 32) | code.toLong

  /** Record indices per block, ascending. */
  private def members(blockOf: Array[Int], nBlocks: Int): Array[Array[Int]] = {
    val sizes = new Array[Int](nBlocks)
    var r = 0
    while (r < blockOf.length) { sizes(blockOf(r)) += 1; r += 1 }
    val out = sizes.map(new Array[Int](_))
    java.util.Arrays.fill(sizes, 0)
    var i = 0
    while (i < blockOf.length) {
      val b = blockOf(i)
      out(b)(sizes(b)) = i
      sizes(b) += 1
      i += 1
    }
    out
  }

  /** Indeterminacy of an undecided attribute under Φ_H (§4.3): the maximum
    * number of distinct source values of the attribute over mixed blocks —
    * an upper bound on how many source values must be considered as the
    * origin of a target value. Falls back to the global distinct count when
    * no block is mixed.
    */
  def indeterminacy(inst: LocalInstance, blocking: BlockingResult, attr: Int): Int =
    indeterminacy(inst, blocking, attr, new Marks)

  /** [[indeterminacy]] with `seen` as scratch for the codes of a block. */
  def indeterminacy(inst: LocalInstance, blocking: BlockingResult, attr: Int, seen: Marks): Int = {
    val col = inst.encoded(attr)
    val mixed = blocking.mixed
    if (mixed.isEmpty) col.srcDistinct
    else {
      // A block with no more sources than `best` cannot raise it, and no
      // block holds more distinct values than all sources together.
      var best = 0
      var i = 0
      while (i < mixed.length && best < col.srcDistinct) {
        val src = mixed(i).src
        if (src.length > best) {
          seen.clear()
          var distinct = 0
          var k = 0
          while (k < src.length) {
            if (seen.add(col.src(src(k)))) distinct += 1
            k += 1
          }
          if (distinct > best) best = distinct
        }
        i += 1
      }
      best
    }
  }
}

/** Open-addressing map from non-negative `Long` keys to dense ids
  * 0, 1, 2, … in order of first insertion, sized for at most `capacity`
  * keys.
  */
private final class LongIntMap(capacity: Int) {
  private val mask = Integer.highestOneBit(math.max(2, capacity) * 2 - 1) * 2 - 1
  private val keys = new Array[Long](mask + 1)
  private val ids = new Array[Int](mask + 1) // id + 1; 0 = empty slot
  var size = 0

  def clear(): Unit = {
    java.util.Arrays.fill(ids, 0)
    size = 0
  }

  /** The id of `key`, which gets the next id if it is new. */
  def getOrAdd(key: Long): Int = {
    var slot = java.lang.Long.hashCode(key * 0x9E3779B97F4A7C15L) & mask
    while (true) {
      val id = ids(slot)
      if (id == 0) {
        keys(slot) = key
        size += 1
        ids(slot) = size
        return size - 1
      }
      if (keys(slot) == key) return id - 1
      slot = (slot + 1) & mask
    }
    -1
  }
}
