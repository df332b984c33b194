package repro.core.search

import repro.core.blocking.BlockingResult
import repro.core.model.{AttrFunc, CodeMap}

/** Assignment of one attribute inside a search state (Def. 4.1). */
sealed trait Slot
object Slot {

  /** `∗` — the function of the attribute is still undecided. */
  case object Star extends Slot

  /** A concrete function assignment. */
  final case class Decided(f: AttrFunc) extends Slot
}

/** A search state H ∈ H_I: a d-tuple of slots, each undecided (`∗`) or
  * decided. The `□` of map-suited attributes (§4.3) never appears in a
  * state: `Affidavit#extensions` keeps those attributes in a local list and
  * finalizes them at once.
  *
  * @param from for a state the search derived (a start state, a kept
  *             extension or a finalized end state): the parent's blocking
  *             and the assignment added to it, so the state's cost is one
  *             count and its blocking one refinement away. Not part of
  *             equality, hashing or the signature; `None` for the blank
  *             state and states built by [[assign]]. A queued state holds
  *             its parent's blocking: at most one per queued state.
  */
final case class State(slots: Vector[Slot])(val from: Option[State.Step] = None) {
  import Slot._

  def d: Int = slots.length

  /** Number of decided attributes — the lattice level used by the queue. */
  lazy val level: Int = slots.count(_.isInstanceOf[Decided])

  def isEnd: Boolean = slots.forall(_.isInstanceOf[Decided])

  def undecided: Vector[Int] = slots.indices.toVector.filter(i => slots(i) == Star)

  /** (attribute index, function) pairs for blocking. */
  def decided: Array[(Int, AttrFunc)] =
    slots.indices.collect { case i if slots(i).isInstanceOf[Decided] =>
      (i, slots(i).asInstanceOf[Decided].f)
    }.toArray

  def assign(attr: Int, f: AttrFunc): State = State(slots.updated(attr, Decided(f)))()

  /** [[assign]] of `f`, remembering this state's blocking and `table`,
    * which applies `f` to `attr`'s codes, for the child.
    */
  def extend(blocking: BlockingResult, attr: Int, f: AttrFunc, table: CodeMap): State =
    State(slots.updated(attr, Decided(f)))(Some(State.Step(blocking, attr, table)))

  /** Σ ψ over decided assignments — the c_f component of the state cost. */
  lazy val cf: Int = slots.collect { case Decided(f) => f.psi }.sum

  /** A readable name of the decided slots. It seeds each extension's
    * random draws (`Affidavit#extensions`); it is not a key, because a
    * `ValueMap`'s `describe` shows only its first entries.
    */
  lazy val signature: String =
    slots.zipWithIndex.collect { case (Decided(f), i) => s"$i=${f.describe}" }.mkString(";")
}

object State {

  /** The assignment to `attr`, applied to its codes by `table`, that made
    * a state from a parent whose blocking is `parent`.
    */
  final case class Step(parent: BlockingResult, attr: Int, table: CodeMap)

  /** H^∅-style blank state. */
  def blank(d: Int): State = State(Vector.fill(d)(Slot.Star))()
}
