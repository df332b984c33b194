package repro.eval

/** The published Table 2 of the paper, embedded for paper-vs-measured
  * reporting. One cell per (dataset, config, setting): runtime seconds,
  * Δcore, Δcosts, accuracy — macro averages over 10 problem instances on
  * the authors' 24-core testbed.
  */
object PaperNumbers {

  /** (t seconds, Δcore, Δcosts, acc). */
  final case class Cell(t: Double, dCore: Double, dCosts: Double, acc: Double)

  /** Settings in table order: (η, τ) = (0.3,0.3), (0.5,0.5), (0.7,0.7). */
  val settings: Vector[(Double, Double)] = Vector((0.3, 0.3), (0.5, 0.5), (0.7, 0.7))

  /** Problem instances per (dataset, setting), as in §5.2. */
  val instances: Int = 10

  /** table2((dataset, config)) = cells for the three settings in order. */
  val table2: Map[(String, String), Vector[Cell]] = Map(
    ("iris", "Hs") -> Vector(Cell(0.12, 1.01, 1.00, 1.00), Cell(0.09, 0.99, 1.01, 0.99), Cell(0.10, 1.04, 0.99, 0.99)),
    ("iris", "Hid") -> Vector(Cell(0.69, 1.01, 1.00, 1.00), Cell(0.51, 1.02, 0.99, 1.00), Cell(0.38, 1.05, 0.99, 0.99)),
    ("balance", "Hs") -> Vector(Cell(0.23, 1.01, 0.99, 0.99), Cell(0.21, 0.96, 1.02, 0.92), Cell(0.19, 1.42, 0.90, 0.84)),
    ("balance", "Hid") -> Vector(Cell(0.82, 1.01, 0.99, 0.99), Cell(0.63, 0.93, 1.03, 0.90), Cell(0.79, 1.44, 0.89, 0.86)),
    ("chess", "Hs") -> Vector(Cell(2.83, 0.00, 2.11, 0.43), Cell(2.16, 0.24, 1.46, 0.56), Cell(2.00, 0.45, 1.16, 0.60)),
    ("chess", "Hid") -> Vector(Cell(7.70, 1.03, 0.96, 1.00), Cell(6.37, 1.05, 0.97, 0.98), Cell(12.97, 1.24, 0.93, 0.86)),
    ("abalone", "Hs") -> Vector(Cell(1.49, 0.98, 1.02, 1.00), Cell(1.01, 0.98, 1.01, 1.00), Cell(0.88, 0.82, 1.04, 0.89)),
    ("abalone", "Hid") -> Vector(Cell(8.70, 1.00, 1.00, 1.00), Cell(3.44, 1.00, 1.00, 1.00), Cell(3.61, 0.97, 1.01, 1.00)),
    ("nursery", "Hs") -> Vector(Cell(1.58, 0.00, 2.27, 0.51), Cell(1.36, 0.16, 1.56, 0.56), Cell(1.41, 0.00, 1.32, 0.48)),
    ("nursery", "Hid") -> Vector(Cell(4.24, 1.00, 1.01, 0.98), Cell(5.26, 0.96, 1.03, 0.85), Cell(4.63, 1.55, 0.83, 0.87)),
    ("bridges", "Hs") -> Vector(Cell(0.05, 0.99, 1.02, 1.00), Cell(0.08, 0.96, 1.04, 0.99), Cell(0.08, 1.05, 1.11, 0.90)),
    ("bridges", "Hid") -> Vector(Cell(0.43, 1.00, 1.00, 1.00), Cell(0.50, 1.00, 1.01, 0.99), Cell(0.69, 1.15, 1.04, 0.96)),
    ("echo", "Hs") -> Vector(Cell(0.07, 0.99, 1.02, 1.00), Cell(0.13, 0.93, 1.06, 0.98), Cell(0.11, 0.89, 1.13, 0.93)),
    ("echo", "Hid") -> Vector(Cell(0.79, 0.99, 1.02, 1.00), Cell(0.89, 0.93, 1.04, 0.99), Cell(0.95, 0.87, 1.11, 0.94)),
    ("breast", "Hs") -> Vector(Cell(0.39, 1.07, 0.91, 1.00), Cell(0.42, 1.21, 0.85, 0.99), Cell(0.42, 1.49, 0.83, 0.98)),
    ("breast", "Hid") -> Vector(Cell(1.02, 1.10, 0.86, 1.00), Cell(1.08, 1.26, 0.81, 1.00), Cell(1.37, 1.60, 0.80, 0.99)),
    ("adult", "Hs") -> Vector(Cell(6.42, 0.96, 1.06, 1.00), Cell(5.57, 0.97, 1.05, 0.99), Cell(4.17, 0.99, 1.03, 0.97)),
    ("adult", "Hid") -> Vector(Cell(14.33, 1.00, 1.01, 1.00), Cell(19.91, 0.93, 1.10, 0.99), Cell(17.38, 1.10, 0.99, 0.98)),
    ("ncvoter-1k", "Hs") -> Vector(Cell(0.58, 0.95, 1.08, 1.00), Cell(0.57, 0.99, 1.01, 1.00), Cell(0.85, 0.88, 1.06, 0.97)),
    ("ncvoter-1k", "Hid") -> Vector(Cell(1.81, 0.99, 1.02, 1.00), Cell(2.33, 0.98, 1.01, 1.00), Cell(3.50, 0.87, 1.07, 0.96)),
    ("letter", "Hs") -> Vector(Cell(4.41, 0.00, 2.65, 0.86), Cell(5.04, 0.31, 1.55, 0.82), Cell(5.59, 0.68, 1.12, 0.79)),
    ("letter", "Hid") -> Vector(Cell(12.73, 1.02, 0.97, 1.00), Cell(10.78, 1.04, 0.97, 1.00), Cell(9.40, 1.14, 0.95, 1.00)),
    ("hepatitis", "Hs") -> Vector(Cell(0.11, 0.95, 1.09, 1.00), Cell(0.14, 0.97, 1.02, 1.00), Cell(0.19, 0.83, 1.09, 0.98)),
    ("hepatitis", "Hid") -> Vector(Cell(0.79, 0.94, 1.10, 1.00), Cell(0.71, 0.96, 1.03, 1.00), Cell(0.76, 0.82, 1.09, 0.97)),
    ("horse", "Hs") -> Vector(Cell(0.23, 0.99, 1.01, 1.00), Cell(0.38, 0.89, 1.09, 0.99), Cell(0.56, 0.99, 1.01, 1.00)),
    ("horse", "Hid") -> Vector(Cell(1.19, 0.97, 1.06, 1.00), Cell(1.36, 0.94, 1.05, 0.99), Cell(1.82, 0.82, 1.07, 0.98)),
    ("fd-red-30", "Hs") -> Vector(Cell(261.18, 1.03, 1.06, 1.00), Cell(190.49, 0.96, 1.04, 1.00), Cell(132.03, 0.98, 1.01, 1.00)),
    ("fd-red-30", "Hid") -> Vector(Cell(281.46, 1.00, 1.00, 1.00), Cell(342.02, 1.00, 1.00, 1.00), Cell(242.51, 1.00, 1.00, 1.00)),
    ("plista", "Hs") -> Vector(Cell(1.70, 0.90, 1.20, 1.00), Cell(2.35, 0.89, 1.10, 0.99), Cell(2.52, 1.06, 0.98, 1.00)),
    ("plista", "Hid") -> Vector(Cell(4.34, 0.98, 1.05, 1.00), Cell(6.74, 1.01, 0.99, 1.00), Cell(8.28, 0.93, 1.03, 0.99)),
    ("flight-1k", "Hs") -> Vector(Cell(2.67, 0.81, 1.41, 0.99), Cell(3.85, 0.68, 1.30, 0.98), Cell(4.82, 0.69, 1.13, 0.98)),
    ("flight-1k", "Hid") -> Vector(Cell(14.98, 1.00, 1.01, 1.00), Cell(26.58, 0.95, 1.05, 1.00), Cell(35.89, 0.90, 1.05, 0.99)),
    ("uniprot", "Hs") -> Vector(Cell(2.95, 0.45, 2.23, 0.99), Cell(2.80, 0.33, 1.65, 0.99), Cell(3.96, 0.77, 1.10, 1.00)),
    ("uniprot", "Hid") -> Vector(Cell(49.52, 1.00, 1.01, 1.00), Cell(40.55, 1.00, 1.01, 1.00), Cell(33.70, 0.85, 1.08, 1.00)),
  )

  /** Table 2's dataset order with |A| and record counts as published. */
  val datasets: Vector[(String, Int, Int)] = Vector(
    ("iris", 6, 150), ("balance", 6, 625), ("chess", 8, 28056), ("abalone", 9, 4177),
    ("nursery", 10, 12960), ("bridges", 10, 108), ("echo", 10, 132), ("breast", 11, 699),
    ("adult", 15, 48842), ("ncvoter-1k", 16, 1000), ("letter", 18, 20000),
    ("hepatitis", 19, 155), ("horse", 28, 368), ("fd-red-30", 31, 250000),
    ("plista", 43, 1000), ("flight-1k", 75, 1000), ("uniprot", 182, 1000))
}
