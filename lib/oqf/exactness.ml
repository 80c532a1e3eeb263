let link_exact ~full_rig ~indexed a b =
  Ralg.Rig.count_paths_avoiding full_rig a b ~avoid_interior:indexed = `One
