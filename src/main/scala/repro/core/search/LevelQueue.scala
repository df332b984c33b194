package repro.core.search

import scala.collection.mutable

/** The modified priority queue of §4.6.
  *
  * Level i (states with i assignments) holds at most `max(1, ϱ − i + 1)`
  * states. A full level accepts a new state only if it is not worse than
  * every state currently on that level, evicting the worst to make room.
  * Polling returns the globally cheapest state; ties break towards more
  * assignments. Duplicate states (equal slots, see [[State]]) are never
  * re-admitted.
  */
final class LevelQueue(queueWidth: Int) {

  private final case class Entry(state: State, cost: Double)

  private val levels = mutable.Map.empty[Int, mutable.ArrayBuffer[Entry]]
  // The slots of every state offered: exactly a state's equality, without
  // holding on to the parent blocking its `from` carries.
  private val seen = mutable.HashSet.empty[Vector[Slot]]

  def capacity(level: Int): Int = math.max(1, queueWidth - level + 1)

  def isEmpty: Boolean = levels.valuesIterator.forall(_.isEmpty)
  def nonEmpty: Boolean = !isEmpty
  def size: Int = levels.valuesIterator.map(_.size).sum

  /** Offer a state; returns true if it was admitted. */
  def offer(state: State, cost: Double): Boolean = {
    if (!seen.add(state.slots)) return false
    val buf = levels.getOrElseUpdate(state.level, mutable.ArrayBuffer.empty)
    val cap = capacity(state.level)
    if (buf.size < cap) {
      buf += Entry(state, cost)
      true
    } else {
      val worstIdx = buf.indices.maxBy(i => buf(i).cost)
      if (cost <= buf(worstIdx).cost) {
        buf(worstIdx) = Entry(state, cost)
        true
      } else false
    }
  }

  /** Remove and return the best state (lowest cost; deeper wins ties). */
  def poll(): (State, Double) = {
    var bestLevel = -1
    var bestIdx = -1
    var bestCost = Double.PositiveInfinity
    var bestDepth = -1
    for ((lvl, buf) <- levels; i <- buf.indices) {
      val e = buf(i)
      if (e.cost < bestCost || (e.cost == bestCost && lvl > bestDepth)) {
        bestCost = e.cost
        bestLevel = lvl
        bestIdx = i
        bestDepth = lvl
      }
    }
    require(bestLevel >= 0, "poll on empty queue")
    val e = levels(bestLevel).remove(bestIdx)
    (e.state, e.cost)
  }
}
