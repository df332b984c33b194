package repro.core.search

import scala.collection.mutable
import scala.util.Random

import repro.core.blocking.BlockingResult
import repro.core.functions.MetaFunction
import repro.core.model.{AttrFunc, CodeTable, EncodedAttr, LocalInstance, Marks}

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
    if (blocking.size == 0) return Nil
    val col = inst.encoded(attr)

    // --- candidate generation from sampled noisy input-output examples ---
    // Positions in `tgt`, the blocking's pool of mixed targets.
    val k = cfg.inductionSampleSize
    val sampled =
      if (blocking.tgt.length <= k) Array.range(0, blocking.tgt.length)
      else Sampling.draw(blocking.tgt.length, k, rnd)

    // Distinct source codes per mixed block, in order of first occurrence,
    // computed when an example of the block is first drawn.
    val srcCodesCache = new Array[Array[Int]](blocking.size)
    def srcCodes(b: Int): Array[Int] = {
      if (srcCodesCache(b) == null) {
        val all = new Array[Int](blocking.srcStart(b + 1) - blocking.srcStart(b))
        var n = 0
        induced.seen.clear()
        var i = blocking.srcStart(b)
        while (i < blocking.srcStart(b + 1)) {
          val c = col.src(blocking.src(i))
          if (induced.seen.add(c)) { all(n) = c; n += 1 }
          i += 1
        }
        val distinct = java.util.Arrays.copyOf(all, n)
        srcCodesCache(b) =
          if (n <= MaxSrcValuesPerExample) distinct
          else Sampling.shuffle(distinct, rnd).take(MaxSrcValuesPerExample)
      }
      srcCodesCache(b)
    }

    // Per candidate id, the number of sampled examples that induced it; an
    // example counts a candidate once.
    val counts = induced.counts
    var si = 0
    while (si < sampled.length) {
      val p = sampled(si)
      val out = col.tgt(blocking.tgt(p))
      val vals = srcCodes(blocking.targetBlock(p))
      counts.nextExample()
      var vi = 0
      while (vi < vals.length) {
        val gen = induced(attr, vals(vi), out)
        var gi = 0
        while (gi < gen.length) {
          counts.add(gen(gi).id)
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
    val survivors = counts.drain(threshold).map(induced(_))
    if (survivors.isEmpty) return Nil

    // --- ranking by sampled histogram overlap minus description length ---
    rankByOverlap(inst, blocking, attr, survivors, cfg, rnd, induced).toList
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

  /** The best β candidates, in rank order, by the estimated number of
    * records they would align: sample k' source records, dedupe their
    * blocks, and on each block compare the histogram of transformed source
    * values against the block's target-value histogram (sum of per-value
    * minimum frequencies). The
    * final rank key is total overlap minus ψ, descending, then ψ, then
    * `describe`, which tells the candidates of one attribute apart, so the
    * order of `candidates` does not matter. The histograms are the run's
    * scratch, held by `induced`.
    */
  private def rankByOverlap(
      inst: LocalInstance,
      blocking: BlockingResult,
      attr: Int,
      candidates: Array[Candidate],
      cfg: AffidavitConfig,
      rnd: Random,
      induced: InducedCandidates,
  ): Array[Candidate] = {
    val col = inst.encoded(attr)
    // The blocking's pool of mixed sources, as the block of each.
    val pool = blocking.sourceBlock
    val kPrime = cfg.rankingSampleSize
    val drawn =
      if (pool.length <= kPrime) pool
      else Sampling.draw(pool.length, kPrime, rnd).map(pool)
    val seen = induced.seen
    seen.clear()
    val chosenBlocks = drawn.filter(seen.add) // distinct, in order of first draw

    // Per chosen block, the target histogram and the source-code histogram
    // are built once; each candidate re-buckets the source histogram
    // through its code table, where outputs absent from the dictionary
    // match no target and drop out. The three counts are zero between
    // blocks.
    val scratch = induced.histograms(col.size)
    val tgtCount = scratch.tgtCount
    val srcCount = scratch.srcCount
    val srcCodes = scratch.srcCodes // distinct source codes of the block
    val mapped = scratch.mapped
    val hits = scratch.hits // codes with a mapped count
    val candTables = candidates.map(_.table)
    val overlaps = new Array[Long](candidates.length)
    var b = 0
    while (b < chosenBlocks.length) {
      val block = chosenBlocks(b)
      var j = blocking.tgtStart(block)
      while (j < blocking.tgtStart(block + 1)) { tgtCount(col.tgt(blocking.tgt(j))) += 1; j += 1 }
      var nCodes = 0
      var i = blocking.srcStart(block)
      while (i < blocking.srcStart(block + 1)) {
        val c = col.src(blocking.src(i))
        if (srcCount(c) == 0) { srcCodes(nCodes) = c; nCodes += 1 }
        srcCount(c) += 1
        i += 1
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
      j = blocking.tgtStart(block)
      while (j < blocking.tgtStart(block + 1)) { tgtCount(col.tgt(blocking.tgt(j))) = 0; j += 1 }
      b += 1
    }
    val score = new Array[Long](candidates.length)
    var ci = 0
    while (ci < candidates.length) { score(ci) = overlaps(ci) - candidates(ci).psi; ci += 1 }
    def before(i: Int, j: Int): Boolean =
      if (score(i) != score(j)) score(i) > score(j)
      else if (candidates(i).psi != candidates(j).psi) candidates(i).psi < candidates(j).psi
      else candidates(i).describe.compareTo(candidates(j).describe) < 0
    // The best β positions, in rank order, by insertion into `top`; the
    // order is total, since `describe` tells the candidates apart.
    val top = new Array[Int](math.min(cfg.beta, candidates.length))
    var size = 0
    var i = 0
    while (i < candidates.length) {
      if (size < top.length || before(i, top(size - 1))) {
        if (size < top.length) size += 1
        var j = size - 1
        while (j > 0 && before(i, top(j - 1))) { top(j) = top(j - 1); j -= 1 }
        top(j) = i
      }
      i += 1
    }
    top.map(candidates(_))
  }
}

/** One candidate function of a search run: the first function any example
  * induced with its (attribute, `describe`). `id` numbers the run's
  * candidates in order of first induction; `describe` and `psi` are `f`'s,
  * computed once.
  */
final class Candidate private[search] (val id: Int, val f: AttrFunc, val describe: String, col: EncodedAttr) {
  val psi: Int = f.psi

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
  * again. It also holds the run's scratch for [[Induction.induceCandidates]]
  * and its ranking.
  */
final class InducedCandidates(inst: LocalInstance, metas: List[MetaFunction]) {
  private val byId = mutable.ArrayBuffer.empty[Candidate]
  private val byDescribe = Array.fill(inst.d)(mutable.HashMap.empty[String, Candidate])
  private val byExample = Array.fill(inst.d)(mutable.LongMap.empty[Array[Candidate]])

  private val metaArray = metas.toArray
  private[search] val counts = new ExampleCounts
  private[search] val seen = new Marks
  private var rankScratch = new Histograms(0)

  /** The ranking's histograms, for codes below `size`. */
  private[search] def histograms(size: Int): Histograms = {
    if (rankScratch.tgtCount.length < size) rankScratch = new Histograms(size)
    rankScratch
  }

  def apply(id: Int): Candidate = byId(id)

  def apply(attr: Int, in: Int, out: Int): Array[Candidate] =
    byExample(attr).getOrElseUpdate((in.toLong << 32) | out.toLong, {
      val col = inst.encoded(attr)
      val inV = col.dict(in)
      val outV = col.dict(out)
      val gen = mutable.ArrayBuilder.make[Candidate]
      var m = 0
      while (m < metaArray.length) {
        for (f <- metaArray(m).induceVerified(inV, outV)) {
          val key = f.describe
          gen += byDescribe(attr).getOrElseUpdate(key, {
            byId += new Candidate(byId.length, f, key, col)
            byId.last
          })
        }
        m += 1
      }
      gen.result()
    })
}

/** Code-indexed scratch of one search run's overlap ranking, each array
  * `size` long: the three counts are all zero between calls, and the two
  * code lists are written before they are read.
  */
private[search] final class Histograms(size: Int) {
  val tgtCount = new Array[Int](size)
  val srcCount = new Array[Int](size)
  val mapped = new Array[Int](size)
  val srcCodes = new Array[Int](size)
  val hits = new Array[Int](size)
}

/** Per candidate id, the number of examples of one induction call that
  * induced it, each example counting a candidate once. Scratch of a search
  * run: the arrays grow with the registry's ids and are never wiped; a call
  * ends with [[drain]], which zeroes only the ids it counted.
  */
private[search] final class ExampleCounts {
  private var count = new Array[Int](64)
  private val inExample = new Marks // ids counted for the current example
  private var touched = new Array[Int](64) // ids with a nonzero count
  private var nTouched = 0

  /** Starts counting the next example. */
  def nextExample(): Unit = inExample.clear()

  def add(id: Int): Unit =
    if (inExample.add(id)) {
      if (id >= count.length) count = java.util.Arrays.copyOf(count, math.max(id + 1, 2 * count.length))
      if (count(id) == 0) {
        if (nTouched == touched.length) touched = java.util.Arrays.copyOf(touched, 2 * nTouched)
        touched(nTouched) = id
        nTouched += 1
      }
      count(id) += 1
    }

  /** The ids counted at least `threshold` times, in order of first count;
    * all counts are zero afterwards.
    */
  def drain(threshold: Int): Array[Int] = {
    val out = mutable.ArrayBuilder.make[Int]
    var i = 0
    while (i < nTouched) {
      val id = touched(i)
      if (count(id) >= threshold) out += id
      count(id) = 0
      i += 1
    }
    nTouched = 0
    out.result()
  }
}
