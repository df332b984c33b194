package repro.core.search

import scala.collection.mutable
import scala.util.Random

import repro.core.blocking.{Block, BlockingResult}
import repro.core.functions.MetaFunction
import repro.core.model.{AttrFunc, CodeTable, EncodedAttr, LocalInstance}

/** Function-candidate induction and ranking (§4.4.2, §4.4.3). */
object Induction {

  /** Cap on the distinct in-block source values tried per sampled target
    * example. The paper tries *every* source record of the block; this cap
    * is a tractability guard for the gigantic blocks of early search states
    * only. It must stay well above typical in-block distinct counts: a
    * tight cap (e.g. 64) samples away the matching source value in large
    * blocks, the correct function misses the significance threshold, and
    * degenerate constants win instead.
    */
  val MaxSrcValuesPerExample = 4096

  /** Induce, significance-filter and rank candidate functions for one
    * attribute from the blocking result; returns the best `beta` candidates
    * in rank order.
    *
    * `induced` is the candidate registry of the search run; results do not
    * depend on what it already holds.
    */
  def induceCandidates(
      inst: LocalInstance,
      blocking: BlockingResult,
      attr: Int,
      cfg: AffidavitConfig,
      rnd: Random,
      induced: InducedCandidates,
  ): List[Candidate] = {
    val mixed = blocking.mixed
    if (mixed.isEmpty) return Nil
    val col = inst.encoded(attr)

    // --- candidate generation from sampled noisy input-output examples ---
    // Pool of (block, target record) pairs over mixed blocks.
    val poolBlock = mutable.ArrayBuilder.make[Int]
    val poolTarget = mutable.ArrayBuilder.make[Int]
    var bi = 0
    while (bi < mixed.length) {
      val tgt = mixed(bi).tgt
      var k = 0
      while (k < tgt.length) { poolBlock += bi; poolTarget += tgt(k); k += 1 }
      bi += 1
    }
    val blocks = poolBlock.result()
    val targets = poolTarget.result()
    val k = cfg.inductionSampleSize
    val sampled: Array[Int] = // pool positions
      if (targets.length <= k) targets.indices.toArray
      else Sampling.shuffle(targets.indices.toArray, rnd).take(k)

    // Distinct source codes per mixed block, in order of first occurrence,
    // computed lazily and cached.
    val srcCodesCache = new Array[Array[Int]](mixed.length)
    def srcCodes(b: Int): Array[Int] = {
      if (srcCodesCache(b) == null) {
        val seen = mutable.LinkedHashSet.empty[Int]
        mixed(b).src.foreach(s => seen += col.src(s))
        val all = seen.toArray
        srcCodesCache(b) =
          if (all.length <= MaxSrcValuesPerExample) all
          else Sampling.shuffle(all, rnd).take(MaxSrcValuesPerExample)
      }
      srcCodesCache(b)
    }

    // Per candidate id: the number of sampled examples that induced it, and
    // the last one counted (+ 1), so an example counts a candidate once.
    val counts = mutable.LongMap.empty[Int]
    val lastExample = mutable.LongMap.empty[Int]
    var si = 0
    while (si < sampled.length) {
      val p = sampled(si)
      val out = col.tgt(targets(p))
      val vals = srcCodes(blocks(p))
      var vi = 0
      while (vi < vals.length) {
        val gen = induced(attr, vals(vi), out)
        var gi = 0
        while (gi < gen.length) {
          val id = gen(gi).id
          if (lastExample.getOrElse(id, 0) != si + 1) {
            lastExample(id) = si + 1
            counts(id) = counts.getOrElse(id, 0) + 1
          }
          gi += 1
        }
        vi += 1
      }
      si += 1
    }

    // --- significance filter (Binomial(θ) rationale, DESIGN.md §3) ---
    val threshold =
      if (sampled.length >= k) cfg.significanceCount
      else math.max(1, math.ceil(cfg.theta * sampled.length / 2.0).toInt)
    val survivors = counts.iterator.collect { case (id, n) if n >= threshold => induced(id.toInt) }.toArray
    if (survivors.isEmpty) return Nil

    // --- ranking by sampled histogram overlap minus description length ---
    val ranked = rankByOverlap(inst, mixed, attr, survivors, cfg, rnd)
    ranked.take(cfg.beta).toList
  }

  /** [[induceCandidates]] with a registry that lives only for this call. */
  def induceCandidates(
      inst: LocalInstance,
      blocking: BlockingResult,
      attr: Int,
      cfg: AffidavitConfig,
      rnd: Random,
  ): List[AttrFunc] =
    induceCandidates(inst, blocking, attr, cfg, rnd, new InducedCandidates(inst, cfg.metas)).map(_.f)

  /** Rank candidates by the estimated number of records they would align:
    * sample k' source records, dedupe their blocks, and on each block
    * compare the histogram of transformed source values against the block's
    * target-value histogram (sum of per-value minimum frequencies). The
    * final rank key is total overlap minus ψ, descending, then ψ, then
    * `describe`, which tells the candidates of one attribute apart, so the
    * order of `candidates` does not matter.
    */
  def rankByOverlap(
      inst: LocalInstance,
      mixed: Array[Block],
      attr: Int,
      candidates: Array[Candidate],
      cfg: AffidavitConfig,
      rnd: Random,
  ): Array[Candidate] = {
    val col = inst.encoded(attr)
    // Pool of (block, source record) pairs, as the block index repeated
    // once per source record.
    val pool = mutable.ArrayBuilder.make[Int]
    var bi = 0
    while (bi < mixed.length) {
      val n = mixed(bi).src.length
      var i = 0
      while (i < n) { pool += bi; i += 1 }
      bi += 1
    }
    val weighted = pool.result()
    val kPrime = cfg.rankingSampleSize
    val chosenBlocks: Array[Int] =
      if (weighted.length <= kPrime) weighted.distinct
      else Sampling.shuffle(weighted, rnd).take(kPrime).distinct

    // Per chosen block, the target histogram and the source-code histogram
    // are built once; each candidate re-buckets the source histogram
    // through its code table, where outputs absent from the dictionary
    // match no target and drop out.
    val candTables = candidates.map(_.table)
    val overlaps = new Array[Long](candidates.length)
    val tgtCount = new Array[Int](col.size)
    val srcCount = new Array[Int](col.size)
    val srcCodes = new Array[Int](col.size) // distinct source codes of the block
    val mapped = new Array[Int](col.size)
    val hits = new Array[Int](col.size) // codes with a mapped count
    var b = 0
    while (b < chosenBlocks.length) {
      val block = mixed(chosenBlocks(b))
      block.tgt.foreach(t => tgtCount(col.tgt(t)) += 1)
      var nCodes = 0
      block.src.foreach { s =>
        val c = col.src(s)
        if (srcCount(c) == 0) { srcCodes(nCodes) = c; nCodes += 1 }
        srcCount(c) += 1
      }
      var ci = 0
      while (ci < candidates.length) {
        val table = candTables(ci)
        var nHits = 0
        var k = 0
        while (k < nCodes) {
          val v = table(srcCodes(k))
          if (v < col.size && tgtCount(v) > 0) {
            if (mapped(v) == 0) { hits(nHits) = v; nHits += 1 }
            mapped(v) += srcCount(srcCodes(k))
          }
          k += 1
        }
        var acc = 0L
        var h = 0
        while (h < nHits) {
          val v = hits(h)
          acc += math.min(mapped(v), tgtCount(v))
          mapped(v) = 0
          h += 1
        }
        overlaps(ci) += acc
        ci += 1
      }
      var k = 0
      while (k < nCodes) { srcCount(srcCodes(k)) = 0; k += 1 }
      block.tgt.foreach(t => tgtCount(col.tgt(t)) = 0)
      b += 1
    }
    candidates.zipWithIndex
      .sortBy { case (c, i) => (-(overlaps(i) - c.f.psi).toDouble, c.f.psi, c.f.describe) }
      .map(_._1)
  }
}

/** One candidate function of a search run: the first function any example
  * induced with its (attribute, `describe`). `id` numbers the run's
  * candidates in order of first induction.
  */
final class Candidate private[search] (val id: Int, val f: AttrFunc, col: EncodedAttr) {

  /** `f` on the attribute's codes, built when the candidate is first
    * ranked; every state that decides the candidate refines with it.
    */
  lazy val table: CodeTable = new CodeTable(col, f)
}

/** The candidate registry of one search run (hash-consing): each function
  * `induceVerified` yields is interned by (attribute, `describe`) the first
  * time any example yields it, so a candidate has one function object and
  * at most one [[CodeTable]] for the run. For each (attribute, input code,
  * output code) example it keeps the candidates the example induces, in
  * generation order, so an example seen in an earlier state is not induced
  * again.
  */
final class InducedCandidates(inst: LocalInstance, metas: List[MetaFunction]) {
  private val byId = mutable.ArrayBuffer.empty[Candidate]
  private val byDescribe = Array.fill(inst.d)(mutable.HashMap.empty[String, Candidate])
  private val byExample = Array.fill(inst.d)(mutable.LongMap.empty[Array[Candidate]])

  def apply(id: Int): Candidate = byId(id)

  def apply(attr: Int, in: Int, out: Int): Array[Candidate] =
    byExample(attr).getOrElseUpdate((in.toLong << 32) | out.toLong, {
      val col = inst.encoded(attr)
      val inV = col.dict(in)
      val outV = col.dict(out)
      metas.iterator.flatMap(_.induceVerified(inV, outV)).map { f =>
        byDescribe(attr).getOrElseUpdate(f.describe, {
          byId += new Candidate(byId.length, f, col)
          byId.last
        })
      }.toArray
    })
}
