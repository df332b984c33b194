package repro.core.blocking

import repro.core.model.{AttrFunc, CodeTable, LocalInstance, Marks}

/** One mixed block of the blocking result Φ_H (Def. 4.4): the source and
  * target record indices, each ascending and neither empty, that share a
  * blocking index κ under the current state.
  */
final case class Block(src: Array[Int], tgt: Array[Int])

/** What the search reads of Φ_H: its mixed blocks (those with both sources
  * and targets), ascending by first source, and the state-cost lower bounds
  * of §4.5. `ct` counts target records that can no longer be aligned: every
  * target of a block without sources plus each mixed block's target
  * surplus; `cs` counts the same for sources. A block with one side adds
  * nothing but its size, so it is not kept.
  *
  * The lazy views are what sampling reads: each is built the first time an
  * extension asks for it and then shared by every attribute it induces on.
  */
final class BlockingResult private[blocking] (val mixed: Array[Block], val ct: Int, val cs: Int) {

  /** The targets of the mixed blocks, block after block: the pool that
    * induction draws its examples from.
    */
  lazy val targets: Array[Int] = {
    val out = new Array[Int](targetBlock.length)
    var from = 0
    var b = 0
    while (b < mixed.length) {
      val tgt = mixed(b).tgt
      System.arraycopy(tgt, 0, out, from, tgt.length)
      from += tgt.length
      b += 1
    }
    out
  }

  /** The mixed block (its index in `mixed`) of each position of [[targets]]. */
  lazy val targetBlock: Array[Int] = blockOfEach(sources = false)

  /** The mixed block of each source, sources block after block: the pool
    * that ranking draws its blocks from, one entry per source.
    */
  lazy val sourceBlock: Array[Int] = blockOfEach(sources = true)

  /** Indices into `mixed`, the blocks with the most sources first. */
  lazy val bySourceCount: Array[Int] = {
    // Fewer sources sort later; the low half is the index.
    val keys = new Array[Long](mixed.length)
    var b = 0
    while (b < keys.length) {
      keys(b) = ((Int.MaxValue - mixed(b).src.length).toLong << 32) | b
      b += 1
    }
    java.util.Arrays.sort(keys)
    val out = new Array[Int](keys.length)
    b = 0
    while (b < keys.length) { out(b) = keys(b).toInt; b += 1 }
    out
  }

  private def blockOfEach(sources: Boolean): Array[Int] = {
    def size(b: Block) = if (sources) b.src.length else b.tgt.length
    var n = 0
    var b = 0
    while (b < mixed.length) { n += size(mixed(b)); b += 1 }
    val out = new Array[Int](n)
    var from = 0
    b = 0
    while (b < mixed.length) {
      java.util.Arrays.fill(out, from, from + size(mixed(b)), b)
      from += size(mixed(b))
      b += 1
    }
    out
  }
}

/** In-memory blocking engine over the dictionary-encoded instance. */
object LocalBlocking {

  /** Build Φ_H for the given decided (attribute index, function) pairs: two
    * records share a block when they agree on every decided attribute, with
    * the assigned function applied on the source side (Def. 4.3).
    *
    * Blocks are found by partition refinement: all records start in one
    * block, and each decided attribute splits it by the records' codes, the
    * step [[refine]] takes. The blocks come out in the same order whatever
    * order the attributes are refined in.
    */
  def block(inst: LocalInstance, decided: Array[(Int, AttrFunc)]): BlockingResult = {
    val ns = inst.source.length
    val nt = inst.target.length
    val all = if (ns > 0 && nt > 0) Array(Block(Array.range(0, ns), Array.range(0, nt))) else Array.empty[Block]
    decided.foldLeft(new BlockingResult(all, math.max(0, nt - ns), math.max(0, ns - nt))) { case (b, (a, f)) =>
      refine(inst, b, a, new CodeTable(inst.encoded(a), f))
    }
  }

  /** Φ_H of a state one assignment `attr ↦ f` below the state whose
    * blocking is `parent`, where `table` applies `f` to `attr`: each mixed
    * parent block splits into one child per code, in O(records in mixed
    * blocks) plus two scratch arrays the size of the attribute's
    * dictionary. A child with one side, and a source whose output is absent
    * from the dictionary, only count in `ct`/`cs`.
    * Equal, block for block and in order, to [[block]] over the parent's
    * decided pairs plus `(attr, f)`.
    */
  def refine(inst: LocalInstance, parent: BlockingResult, attr: Int, table: CodeTable): BlockingResult = {
    val col = inst.encoded(attr)
    val mixed = parent.mixed
    val records = mixed.iterator.map(b => b.src.length + b.tgt.length).sum
    // Each record's child (−1: no child), in the order the loops visit them.
    val childOf = new Array[Int](records)
    // The child of (current parent, code) + 1, and the codes set in it.
    val childOfCode = new Array[Int](col.size)
    val codes = new Array[Int](col.size)
    var nChildren = 0
    val nSrc = new Array[Int](records)
    val nTgt = new Array[Int](records)
    val blocks = new Array[Block](records) // mixed children
    var ct = parent.ct
    var cs = parent.cs
    var r = 0
    var p = 0
    while (p < mixed.length) {
      val b = mixed(p)
      // The parent's surplus is replaced by its children's.
      ct -= math.max(0, b.tgt.length - b.src.length)
      cs -= math.max(0, b.src.length - b.tgt.length)
      val first = nChildren
      var i = 0
      while (i < b.src.length) {
        val c = table(col.src(b.src(i)))
        if (c >= col.size) { childOf(r) = -1; cs += 1 }
        else {
          if (childOfCode(c) == 0) { codes(nChildren - first) = c; nChildren += 1; childOfCode(c) = nChildren }
          childOf(r) = childOfCode(c) - 1
          nSrc(childOf(r)) += 1
        }
        r += 1
        i += 1
      }
      var j = 0
      while (j < b.tgt.length) {
        val c = col.tgt(b.tgt(j))
        if (childOfCode(c) == 0) { codes(nChildren - first) = c; nChildren += 1; childOfCode(c) = nChildren }
        childOf(r) = childOfCode(c) - 1
        nTgt(childOf(r)) += 1
        r += 1
        j += 1
      }
      var k = first
      while (k < nChildren) { childOfCode(codes(k - first)) = 0; k += 1 }
      // A block the attribute does not split is kept as it is.
      if (nChildren == first + 1 && nSrc(first) == b.src.length && nTgt(first) == b.tgt.length) blocks(first) = b
      p += 1
    }
    // Children are numbered by first occurrence within their parent,
    // sources first, so each parent's mixed children come out ascending by
    // first source; one sort merges the parents' runs.
    val out = Array.newBuilder[Block]
    var k = 0
    while (k < nChildren) {
      ct += math.max(0, nTgt(k) - nSrc(k))
      cs += math.max(0, nSrc(k) - nTgt(k))
      if (blocks(k) != null) out += blocks(k)
      else if (nSrc(k) > 0 && nTgt(k) > 0) {
        blocks(k) = Block(new Array[Int](nSrc(k)), new Array[Int](nTgt(k)))
        out += blocks(k)
        nSrc(k) = 0
        nTgt(k) = 0
      }
      k += 1
    }
    r = 0
    p = 0
    while (p < mixed.length) {
      val b = mixed(p)
      if (childOf(r) >= 0 && (blocks(childOf(r)) eq b)) r += b.src.length + b.tgt.length
      else {
        var i = 0
        while (i < b.src.length) {
          val child = childOf(r)
          if (child >= 0 && blocks(child) != null) { blocks(child).src(nSrc(child)) = b.src(i); nSrc(child) += 1 }
          r += 1
          i += 1
        }
        var j = 0
        while (j < b.tgt.length) {
          val child = childOf(r)
          if (blocks(child) != null) { blocks(child).tgt(nTgt(child)) = b.tgt(j); nTgt(child) += 1 }
          r += 1
          j += 1
        }
      }
      p += 1
    }
    val result = out.result()
    java.util.Arrays.sort(result, BySource)
    new BlockingResult(result, ct, cs)
  }

  private val BySource: java.util.Comparator[Block] = (x: Block, y: Block) => Integer.compare(x.src(0), y.src(0))

  /** Indeterminacy of an undecided attribute under Φ_H (§4.3): the maximum
    * number of distinct source values of the attribute over mixed blocks —
    * an upper bound on how many source values must be considered as the
    * origin of a target value. Falls back to the global distinct count when
    * no block is mixed.
    */
  def indeterminacy(inst: LocalInstance, blocking: BlockingResult, attr: Int): Int =
    indeterminacy(inst, blocking, attr, new Marks)

  /** [[indeterminacy]] with `seen` as scratch for the codes of a block.
    * Blocks are visited from the most sources down, so the scan stops at
    * the first block with no more sources than the best count so far: no
    * block holds more distinct values than sources. No block holds more
    * than all sources together either, so a count that reaches that ends
    * the scan too.
    */
  def indeterminacy(inst: LocalInstance, blocking: BlockingResult, attr: Int, seen: Marks): Int = {
    val col = inst.encoded(attr)
    val mixed = blocking.mixed
    if (mixed.isEmpty) col.srcDistinct
    else {
      val order = blocking.bySourceCount
      var best = 0
      var i = 0
      while (i < order.length && best < col.srcDistinct && mixed(order(i)).src.length > best) {
        val src = mixed(order(i)).src
        seen.clear()
        var distinct = 0
        var k = 0
        while (k < src.length && distinct < col.srcDistinct) {
          if (seen.add(col.src(src(k)))) distinct += 1
          k += 1
        }
        if (distinct > best) best = distinct
        i += 1
      }
      best
    }
  }
}
