package repro.core.blocking

import repro.core.model.{AttrFunc, CodeMap, CodeTable, LocalInstance, Marks}

/** A mixed block's sources and targets, as [[BlockingResult.mixed]] copies them out. */
final case class Block(src: Array[Int], tgt: Array[Int])

/** What the search reads of Φ_H (Def. 4.4): its mixed blocks (both sides
  * present) as a flat refinable partition (Valmari & Lehtinen, STACS
  * 2008), and the state-cost lower bounds of §4.5. Block `b`, ascending by
  * first source, has the sources `src(srcStart(b) until srcStart(b + 1))`
  * and the same range of `tgt` and `tgtStart`, each ascending. `ct` counts
  * the targets that can no longer be aligned: those of blocks without
  * sources (which are not kept) and each mixed block's surplus; `cs`
  * counts the same for sources.
  *
  * The lazy views are what sampling reads: each is built the first time an
  * extension asks for it and then shared by every attribute it induces on.
  */
final class BlockingResult private[blocking] (
    val src: Array[Int],
    val srcStart: Array[Int],
    val tgt: Array[Int],
    val tgtStart: Array[Int],
    val ct: Int,
    val cs: Int,
) {

  /** The number of mixed blocks. */
  def size: Int = srcStart.length - 1

  /** The block of each position of `tgt`: the pool induction draws its
    * examples from.
    */
  lazy val targetBlock: Array[Int] = blockOfEach(tgtStart)

  /** The block of each position of `src`: the pool ranking draws its
    * blocks from, one entry per source.
    */
  lazy val sourceBlock: Array[Int] = blockOfEach(srcStart)

  /** Block indices, the blocks with the most sources first. */
  lazy val bySourceCount: Array[Int] = {
    // Fewer sources sort later; the low half is the index.
    val keys = new Array[Long](size)
    var b = 0
    while (b < size) { keys(b) = ((Int.MaxValue - (srcStart(b + 1) - srcStart(b))).toLong << 32) | b; b += 1 }
    java.util.Arrays.sort(keys)
    val out = new Array[Int](size)
    b = 0
    while (b < size) { out(b) = keys(b).toInt; b += 1 }
    out
  }

  private def blockOfEach(start: Array[Int]): Array[Int] = {
    val out = new Array[Int](start(size))
    var b = 0
    while (b < size) { java.util.Arrays.fill(out, start(b), start(b + 1), b); b += 1 }
    out
  }

  /** In each block, the i-th entry of `s`'s range paired with the i-th of
    * `t`'s, for i below the smaller side's size, where `s` is laid out like
    * `src` and `t` like `tgt`: (source, target) pairs, block after block.
    */
  def pairs(s: Array[Int], t: Array[Int]): Array[(Int, Int)] = {
    val out = Array.newBuilder[(Int, Int)]
    var b = 0
    while (b < size) {
      val n = math.min(srcStart(b + 1) - srcStart(b), tgtStart(b + 1) - tgtStart(b))
      var i = 0
      while (i < n) { out += ((s(srcStart(b) + i), t(tgtStart(b) + i))); i += 1 }
      b += 1
    }
    out.result()
  }

  /** The blocks, copied out on each call; the search reads the flat arrays. */
  def mixed: Array[Block] =
    Array.tabulate(size)(b => Block(src.slice(srcStart(b), srcStart(b + 1)), tgt.slice(tgtStart(b), tgtStart(b + 1))))
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
    val ct = math.max(0, nt - ns)
    val cs = math.max(0, ns - nt)
    val root =
      if (ns > 0 && nt > 0) new BlockingResult(Array.range(0, ns), Array(0, ns), Array.range(0, nt), Array(0, nt), ct, cs)
      else new BlockingResult(Array.empty, Array(0), Array.empty, Array(0), ct, cs)
    decided.foldLeft(root) { case (b, (a, f)) => refine(inst, b, a, new CodeTable(inst.encoded(a), f)) }
  }

  /** Φ_H of a state one assignment `attr ↦ f` below the state whose
    * blocking is `parent`, where `table` applies `f` to `attr`: each mixed
    * parent block splits into one child per code, in O(records in mixed
    * blocks) plus two arrays the size of the dictionary. A child with one
    * side, such as the sources whose output is absent from the dictionary,
    * only counts in `ct`/`cs`.
    * Equal, block for block and in order, to [[block]] over the parent's
    * decided pairs plus `(attr, f)`.
    */
  def refine(inst: LocalInstance, parent: BlockingResult, attr: Int, table: CodeMap): BlockingResult = {
    val col = inst.encoded(attr)
    val src = parent.src
    val tgt = parent.tgt
    // The child of each parent position on either side.
    val srcChild = new Array[Int](src.length)
    val tgtChild = new Array[Int](tgt.length)
    // The child of (current parent, code) + 1, and the codes set in it; no
    // target has `col.size`, the code of outputs outside the dictionary.
    val childOfCode = new Array[Int](col.size + 1)
    val codes = new Array[Int](col.size + 1)
    // Per child: its sources, its targets, and (first source << 32) | child.
    val nSrc = new Array[Int](src.length + tgt.length)
    val nTgt = new Array[Int](nSrc.length)
    val keys = new Array[Long](nSrc.length)
    var nChildren = 0
    var ct = parent.ct
    var cs = parent.cs
    var p = 0
    while (p < parent.size) {
      val srcEnd = parent.srcStart(p + 1)
      val tgtEnd = parent.tgtStart(p + 1)
      // The parent's surplus is replaced by its children's.
      val surplus = (srcEnd - parent.srcStart(p)) - (tgtEnd - parent.tgtStart(p))
      ct -= math.max(0, -surplus)
      cs -= math.max(0, surplus)
      val first = nChildren
      var i = parent.srcStart(p)
      while (i < srcEnd) {
        val c = table(col.src(src(i)))
        if (childOfCode(c) == 0) {
          codes(nChildren - first) = c
          keys(nChildren) = (src(i).toLong << 32) | nChildren
          nChildren += 1
          childOfCode(c) = nChildren
        }
        srcChild(i) = childOfCode(c) - 1
        nSrc(srcChild(i)) += 1
        i += 1
      }
      var j = parent.tgtStart(p)
      while (j < tgtEnd) {
        val c = col.tgt(tgt(j))
        if (childOfCode(c) == 0) { codes(nChildren - first) = c; nChildren += 1; childOfCode(c) = nChildren }
        tgtChild(j) = childOfCode(c) - 1
        nTgt(tgtChild(j)) += 1
        j += 1
      }
      var k = first
      while (k < nChildren) { childOfCode(codes(k - first)) = 0; k += 1 }
      p += 1
    }
    // A parent's children are numbered by first occurrence, sources first,
    // so sorting the mixed children's keys merges the parents' runs.
    var nMixed = 0
    var k = 0
    while (k < nChildren) {
      ct += math.max(0, nTgt(k) - nSrc(k))
      cs += math.max(0, nSrc(k) - nTgt(k))
      if (nSrc(k) > 0 && nTgt(k) > 0) { keys(nMixed) = keys(k); nMixed += 1 }
      else { nSrc(k) = -1; nTgt(k) = -1 }
      k += 1
    }
    java.util.Arrays.sort(keys, 0, nMixed)
    // Now nSrc/nTgt hold a mixed child's next free position, −1 if dropped.
    val srcStart = new Array[Int](nMixed + 1)
    val tgtStart = new Array[Int](nMixed + 1)
    var b = 0
    while (b < nMixed) {
      val child = keys(b).toInt
      srcStart(b + 1) = srcStart(b) + nSrc(child)
      tgtStart(b + 1) = tgtStart(b) + nTgt(child)
      nSrc(child) = srcStart(b)
      nTgt(child) = tgtStart(b)
      b += 1
    }
    // Parent positions are visited in order: each side of a child ascends.
    val outSrc = new Array[Int](srcStart(nMixed))
    var i = 0
    while (i < src.length) {
      val child = srcChild(i)
      if (nSrc(child) >= 0) { outSrc(nSrc(child)) = src(i); nSrc(child) += 1 }
      i += 1
    }
    val outTgt = new Array[Int](tgtStart(nMixed))
    var j = 0
    while (j < tgt.length) {
      val child = tgtChild(j)
      if (nTgt(child) >= 0) { outTgt(nTgt(child)) = tgt(j); nTgt(child) += 1 }
      j += 1
    }
    new BlockingResult(outSrc, srcStart, outTgt, tgtStart, ct, cs)
  }

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
    if (blocking.size == 0) col.srcDistinct
    else {
      val order = blocking.bySourceCount
      val src = blocking.src
      val start = blocking.srcStart
      var best = 0
      var i = 0
      while (i < order.length && best < col.srcDistinct && start(order(i) + 1) - start(order(i)) > best) {
        seen.clear()
        var distinct = 0
        var k = start(order(i))
        while (k < start(order(i) + 1) && distinct < col.srcDistinct) {
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
