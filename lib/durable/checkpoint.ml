let due ~log_len ~cut ~last_bytes = log_len - cut > last_bytes

let image ~cores ~core ~epoch ~wal_cut ~views ~rows : Walcodec.snapshot =
  {
    Walcodec.core;
    epoch;
    wal_cut;
    views = List.filter_map (fun (c, v) -> if c = core then Some v else None) views;
    rows = List.filter (fun { Mk_meerkat.Replica.key; _ } -> key mod cores = core) rows;
  }

let images ~cores ~epoch ~wal_cut ~views ~rows =
  Array.init cores (fun core ->
      image ~cores ~core ~epoch ~wal_cut:(wal_cut core) ~views ~rows)
