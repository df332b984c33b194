package repro.core.search

import scala.collection.mutable
import scala.util.Random

import repro.core.blocking.{Block, BlockingResult}
import repro.core.functions.MetaFunction
import repro.core.model.{AttrFunc, CodeTables, LocalInstance}

/** Function-candidate induction and ranking (§4.4.2, §4.4.3). */
object Induction {

  /** Induce, significance-filter and rank candidate functions for one
    * attribute from the blocking result; returns the best `beta` candidates
    * in rank order.
    *
    * `induced` and `tables` are the memos of the search run; results do not
    * depend on what they already hold.
    */
  def induceCandidates(
      inst: LocalInstance,
      blocking: BlockingResult,
      attr: Int,
      cfg: AffidavitConfig,
      rnd: Random,
      induced: InducedCandidates,
      tables: CodeTables,
  ): List[AttrFunc] = {
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
          if (all.length <= cfg.maxSrcValuesPerExample) all
          else Sampling.shuffle(all, rnd).take(cfg.maxSrcValuesPerExample)
      }
      srcCodesCache(b)
    }

    // Candidates are numbered by first generation in this call, one id per
    // `describe`; a counted candidate keeps the function of its latest
    // generation.
    val ids = mutable.HashMap.empty[String, Int]
    val cands = mutable.ArrayBuffer.empty[AttrFunc]
    val counts = mutable.ArrayBuffer.empty[Int]
    val lastExample = mutable.ArrayBuffer.empty[Int] // last sampled example that counted the id
    val generated = mutable.LongMap.empty[Array[(Int, AttrFunc)]]
    def generate(in: Int, out: Int): Array[(Int, AttrFunc)] =
      generated.getOrElseUpdate((in.toLong << 32) | out.toLong,
        induced(attr, in, out).map { case (describe, f) =>
          val id = ids.getOrElseUpdate(describe, {
            cands += f
            counts += 0
            lastExample += -1
            cands.length - 1
          })
          (id, f)
        })

    var si = 0
    while (si < sampled.length) {
      val p = sampled(si)
      val out = col.tgt(targets(p))
      val vals = srcCodes(blocks(p))
      var vi = 0
      while (vi < vals.length) {
        val gen = generate(vals(vi), out)
        var gi = 0
        while (gi < gen.length) {
          val (id, f) = gen(gi)
          if (lastExample(id) != si) {
            lastExample(id) = si
            counts(id) += 1
            cands(id) = f
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
    val survivors = cands.indices.collect { case id if counts(id) >= threshold => cands(id) }.toArray
    if (survivors.isEmpty) return Nil

    // --- ranking by sampled histogram overlap minus description length ---
    val ranked = rankByOverlap(inst, mixed, attr, survivors, cfg, rnd, tables)
    ranked.take(cfg.beta).toList
  }

  /** [[induceCandidates]] with memos that live only for this call. */
  def induceCandidates(
      inst: LocalInstance,
      blocking: BlockingResult,
      attr: Int,
      cfg: AffidavitConfig,
      rnd: Random,
  ): List[AttrFunc] =
    induceCandidates(inst, blocking, attr, cfg, rnd, new InducedCandidates(inst, cfg.metas), new CodeTables(inst))

  /** Rank candidates by the estimated number of records they would align:
    * sample k' source records, dedupe their blocks, and on each block
    * compare the histogram of transformed source values against the block's
    * target-value histogram (sum of per-value minimum frequencies). The
    * final rank key is total overlap minus ψ, descending, then ψ, then
    * `describe`.
    */
  def rankByOverlap(
      inst: LocalInstance,
      mixed: Array[Block],
      attr: Int,
      candidates: Array[AttrFunc],
      cfg: AffidavitConfig,
      rnd: Random,
      tables: CodeTables,
  ): Array[AttrFunc] = {
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
    val candTables = candidates.map(tables(attr, _))
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
      .sortBy { case (f, i) => (-(overlaps(i) - f.psi).toDouble, f.psi, f.describe) }
      .map(_._1)
  }
}

/** The candidates `induceVerified` yields for each (attribute, input code,
  * output code) example of one instance, each with its `describe`, in
  * generation order. One search run keeps one, so an example seen in an
  * earlier state is not induced again, and a candidate keeps one function
  * object for the run (which is what [[CodeTables]] is keyed by).
  */
final class InducedCandidates(inst: LocalInstance, metas: List[MetaFunction]) {
  private val byAttr = new Array[mutable.LongMap[Array[(String, AttrFunc)]]](inst.d)

  def apply(attr: Int, in: Int, out: Int): Array[(String, AttrFunc)] = {
    if (byAttr(attr) == null) byAttr(attr) = mutable.LongMap.empty
    byAttr(attr).getOrElseUpdate((in.toLong << 32) | out.toLong, {
      val col = inst.encoded(attr)
      val inV = col.dict(in)
      val outV = col.dict(out)
      metas.iterator.flatMap(_.induceVerified(inV, outV)).map(f => (f.describe, f)).toArray
    })
  }
}
