package repro.satreduce

import repro.core.functions.Funcs
import repro.core.model.{AttrFunc, LocalInstance}
import repro.core.search.{Affidavit, Slot, State}

/** The polynomial-time reduction from 3-SAT to Explain-Table-Delta used in
  * the NP-hardness proof (§3.2, Figure 2).
  *
  * For a formula with n clauses over d variables the instance has one
  * source record per clause and, per clause with k literals, the 2^k − 1
  * models over the clause's variables as target records. The candidate
  * functions are only `id` and boolean negation (both ψ = 0), so the cost
  * of an explanation is determined solely by |T^E+|; the formula is
  * satisfiable iff the optimal solution deletes no source record.
  */
object SatReduction {

  /** A clause: literals as (0-based variable index, positive?). */
  final case class Clause(lits: List[(Int, Boolean)]) {
    require(lits.nonEmpty && lits.size <= 3, "3-SAT clauses have 1..3 literals")
    require(lits.map(_._1).distinct.size == lits.size, "duplicate variable in clause")

    def satisfiedBy(interp: Int => Boolean): Boolean =
      lits.exists { case (v, pos) => interp(v) == pos }
  }

  /** Build the Explain-Table-Delta instance for the formula. */
  def toInstance(nVars: Int, clauses: List[Clause]): LocalInstance = {
    val attrs = ("#" +: (1 to nVars).map(i => s"v$i")).toVector

    def sourceRec(i: Int, c: Clause): Array[String] = {
      val cells = Array.fill(nVars + 1)("-")
      cells(0) = s"c${i + 1}"
      for ((v, pos) <- c.lits) cells(v + 1) = if (pos) "1" else "0"
      cells
    }

    def targetRecs(i: Int, c: Clause): Seq[Array[String]] = {
      val vars = c.lits.map(_._1)
      val k = vars.size
      for {
        bits <- 0 until (1 << k)
        model = vars.zipWithIndex.map { case (v, j) => v -> (((bits >> j) & 1) == 1) }.toMap
        if c.satisfiedBy(model)
      } yield {
        val cells = Array.fill(nVars + 1)("-")
        cells(0) = s"c${i + 1}"
        for ((v, pos) <- c.lits) {
          val value = model(v)
          cells(v + 1) = if (pos == value) "1" else "0"
        }
        cells
      }
    }

    LocalInstance(
      attrs,
      clauses.zipWithIndex.map { case (c, i) => sourceRec(i, c) }.toArray,
      clauses.zipWithIndex.flatMap { case (c, i) => targetRecs(i, c) }.toArray,
    )
  }

  /** End state encoding an interpretation: `id` for true variables, boolean
    * negation for false ones; `#` is always `id`.
    */
  def interpretationState(nVars: Int, interp: Int => Boolean): State =
    State(
      (Slot.Decided(Funcs.Identity): Slot) +:
        (0 until nVars)
          .map(v => Slot.Decided(if (interp(v)) Funcs.Identity else Funcs.BoolNeg): Slot)
          .toVector)()

  /** Brute-force optimal solver over the 2^d interpretations; returns the
    * minimum number of deleted source records and one witnessing
    * interpretation.
    */
  def bruteForce(nVars: Int, clauses: List[Clause]): (Int, Vector[Boolean]) = {
    val inst = toInstance(nVars, clauses)
    var bestDeleted = Int.MaxValue
    var bestInterp = Vector.fill(nVars)(false)
    for (bits <- 0 until (1 << nVars)) {
      val interp = (v: Int) => ((bits >> v) & 1) == 1
      val e = Affidavit.toExplanation(inst, interpretationState(nVars, interp))
      if (e.deleted.size < bestDeleted) {
        bestDeleted = e.deleted.size
        bestInterp = Vector.tabulate(nVars)(interp)
      }
    }
    (bestDeleted, bestInterp)
  }

  /** Decide satisfiability via the reduction: satisfiable ⟺ the optimal
    * explanation deletes no source record.
    */
  def satisfiable(nVars: Int, clauses: List[Clause]): Boolean =
    bruteForce(nVars, clauses)._1 == 0

  /** The meta-function registry {id, boolean negation} of the reduction. */
  val reductionMetas: List[repro.core.functions.MetaFunction] =
    List(
      repro.core.functions.MetaFunctions.IdentityMeta,
      repro.core.functions.MetaFunctions.BoolNegMeta)
}
