package cdn

// moveToCell reassigns node i to cell c after the partition was built: a
// hand-made partition, for tests of what the atoms never produce.
func moveToCell(s *simulation, i, c int) { s.cellOf[i] = c }
