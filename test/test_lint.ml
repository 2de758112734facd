(* The ZCP-conformance tooling, tested from both layers: the static
   lint against the fixture files in lint_fixtures/ (exact rule ids and
   locations), and the dynamic lock-discipline checker against real
   stores — including the pre-fix Vstore.find shape that motivated it. *)

module Config = Mk_check_lint.Lint_config
module Engine = Mk_check_lint.Lint_engine
module Findings = Mk_check_lint.Lint_findings
module Owner = Mk_check.Owner
module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Vstore = Mk_storage.Vstore
module Occ = Mk_storage.Occ
module Trecord = Mk_storage.Trecord

let finding = Alcotest.(triple string int int)

let lint_many cfg paths =
  let r = Engine.run ~config:cfg ~paths in
  List.map (fun f -> (f.Findings.rule, f.Findings.line, f.Findings.col)) r.findings

let lint cfg path = lint_many cfg [ path ]

let lint_full cfg paths = (Engine.run ~config:cfg ~paths).Engine.findings
let chain_whats f = List.map (fun h -> h.Findings.what) f.Findings.chain
let fx name = Filename.concat "lint_fixtures" name

let check_anchor what expected f =
  Alcotest.(check finding)
    what expected
    (f.Findings.rule, f.Findings.line, f.Findings.col)

(* --- layer 1: the static rules, one fixture pair per rule --- *)

let test_z1_violations () =
  Alcotest.(check (list finding))
    "coordination + global state flagged"
    [ ("Z1", 4, 18); ("Z1", 5, 11); ("Z1", 6, 19) ]
    (lint Config.default (fx "z1_bad.ml"))

let test_z1_clean () =
  Alcotest.(check (list finding)) "per-call state passes" []
    (lint Config.default (fx "z1_ok.ml"))

let live_fx_cfg =
  { Config.default with Config.coordination_allow = [ fx "live_mailbox_ok.ml" ] }

let test_z1_live_fastpath_flagged () =
  (* Coordination on the live coordinator fast path is flagged even
     though the mailbox internals next door are allowlisted. *)
  Alcotest.(check (list finding))
    "atomic/lock on the protocol fast path flagged"
    [ ("Z1", 4, 14); ("Z1", 7, 2); ("Z1", 9, 2); ("Z1", 10, 24) ]
    (lint live_fx_cfg (fx "live_fastpath_bad.ml"))

let test_z1_live_mailbox_allowlisted () =
  Alcotest.(check (list finding)) "file-scoped allow shields the mailbox" []
    (lint live_fx_cfg (fx "live_mailbox_ok.ml"))

let node_fx_cfg =
  { Config.default with Config.coordination_allow = [ fx "node_shim_ok.ml" ] }

let test_z1_node_core_flagged () =
  (* Coordination in the cluster node's protocol-driving core is
     flagged even though the socket shim next door is allowlisted. *)
  Alcotest.(check (list finding))
    "atomic/thread in the node core flagged"
    [ ("Z1", 5, 16); ("Z1", 8, 10); ("Z1", 9, 2) ]
    (lint node_fx_cfg (fx "node_core_bad.ml"))

let test_z1_node_shim_allowlisted () =
  Alcotest.(check (list finding)) "file-scoped allow shields the shim" []
    (lint node_fx_cfg (fx "node_shim_ok.ml"))

let test_z2_violations () =
  Alcotest.(check (list finding))
    "polymorphic =/hash on ts/tid flagged"
    [ ("Z2", 3, 16); ("Z2", 4, 19) ]
    (lint Config.default (fx "z2_bad.ml"))

let test_z2_clean () =
  (* Includes [Timestamp.compare x y = 0]: the comparator's int result
     is not tainted. *)
  Alcotest.(check (list finding)) "dedicated comparators pass" []
    (lint Config.default (fx "z2_ok.ml"))

let z3_cfg =
  {
    Config.default with
    Config.coordination_allow = [ "lint_fixtures" ];
    shared_modules =
      [ fx "z3_bad.ml"; fx "z3_ok.ml"; fx "vstore_prefix_race.ml" ];
  }

let test_z3_violations () =
  Alcotest.(check (list finding))
    "unguarded Hashtbl op flagged"
    [ ("Z3", 3, 17) ]
    (lint z3_cfg (fx "z3_bad.ml"))

let test_z3_clean () =
  Alcotest.(check (list finding)) "guarded ops pass" [] (lint z3_cfg (fx "z3_ok.ml"))

let test_z3_catches_prefix_vstore_race () =
  (* Regression pin: the exact pre-fix shape of Vstore.find (table
     read, no shard_lock) is a Z3 finding. *)
  Alcotest.(check (list finding))
    "pre-fix Vstore.find shape flagged"
    [ ("Z3", 13, 2) ]
    (lint z3_cfg (fx "vstore_prefix_race.ml"))

let z4_cfg = { Config.default with Config.mli_required_under = [ "lint_fixtures" ] }

let test_z4_violation () =
  Alcotest.(check (list finding))
    "missing .mli flagged"
    [ ("Z4", 1, 0) ]
    (lint z4_cfg (fx "z4_bad.ml"))

let test_z4_clean () =
  Alcotest.(check (list finding)) ".mli present passes" []
    (lint z4_cfg (fx "z4_ok.ml"))

(* --- the interprocedural rules (Z5-Z8), one fixture pair per rule,
   each bad fixture pinned down to exact locations and at least one
   call-chain witness --- *)

let z5_cfg =
  {
    Config.default with
    Config.layering = [ (fx "z5_bad.ml", [ "Unix" ]); (fx "z5_ok.ml", [ "Unix" ]) ];
  }

let test_z5_violation () =
  (* z5_bad.ml itself never mentions Unix: the walk must cross the
     file edge into the sibling z5_dep.ml. *)
  match lint_full z5_cfg [ fx "z5_bad.ml"; fx "z5_dep.ml" ] with
  | [ f ] ->
      check_anchor "layering breach anchored at the sibling dep" ("Z5", 3, 15) f;
      Alcotest.(check (list string))
        "two-hop dependency witness"
        [
          "dependency on " ^ fx "z5_dep.ml"; "dependency on module Unix";
        ]
        (chain_whats f)
  | fs -> Alcotest.failf "expected 1 Z5 finding, got %d" (List.length fs)

let test_z5_clean () =
  Alcotest.(check (list finding))
    "injected clock passes" []
    (lint_many z5_cfg [ fx "z5_ok.ml"; fx "z5_dep.ml" ])

(* The lib/shard discipline in fixture form: the router/xcoord shapes
   are simultaneously a Z5 scope (no transport modules) and Z6 pure
   files, as in the shipped config. A router stamping with the wall
   clock trips both rules; the injected-~now shape lints clean. *)
let shard_fx_cfg =
  {
    Config.default with
    Config.layering =
      [
        (fx "shard_router_bad.ml", [ "Unix" ]);
        (fx "shard_router_ok.ml", [ "Unix" ]);
      ];
    pure_files = [ fx "shard_router_bad.ml"; fx "shard_router_ok.ml" ];
  }

let test_shard_fixture_flagged () =
  let findings = lint shard_fx_cfg (fx "shard_router_bad.ml") in
  Alcotest.(check bool) "wall-clock router breaches layering (Z5)" true
    (List.exists (fun (r, _, _) -> r = "Z5") findings);
  Alcotest.(check bool) "wall-clock router breaks purity (Z6)" true
    (List.exists (fun (r, _, _) -> r = "Z6") findings)

let test_shard_fixture_clean () =
  Alcotest.(check (list finding))
    "injected-~now placement and decision logic pass" []
    (lint shard_fx_cfg (fx "shard_router_ok.ml"))

let z6_cfg =
  { Config.default with Config.pure_files = [ fx "z6_bad.ml"; fx "z6_ok.ml" ] }

let test_z6_violations () =
  match lint_full z6_cfg [ fx "z6_bad.ml" ] with
  | [ f1; f2 ] ->
      check_anchor "helper flagged at its definition" ("Z6", 4, 4) f1;
      Alcotest.(check (list string))
        "direct witness"
        [ "now_us"; "impure use Unix.gettimeofday" ]
        (chain_whats f1);
      check_anchor "caller flagged transitively" ("Z6", 6, 4) f2;
      Alcotest.(check (list string))
        "chain threads through the helper"
        [ "deadline_passed"; "call to now_us"; "impure use Unix.gettimeofday" ]
        (chain_whats f2)
  | fs -> Alcotest.failf "expected 2 Z6 findings, got %d" (List.length fs)

let test_z6_clean () =
  Alcotest.(check (list finding))
    "~now injection passes" []
    (lint z6_cfg (fx "z6_ok.ml"))

let test_z6_open_alias () =
  (* Regression pin for the durable-codec shape: [module D = Sibling]
     (transitively, [module DD = D]) then [open DD]. The resolver must
     expand the opened alias to the sibling file instead of reporting
     an unknown — hence impure — module [DD]. *)
  let cfg = { Config.default with Config.pure_files = [ fx "z6_alias_ok.ml" ] } in
  Alcotest.(check (list finding))
    "opened alias of a pure sibling passes" []
    (lint_many cfg [ fx "z6_alias_ok.ml"; fx "z6_alias_dep.ml" ])

let z7_cfg =
  {
    Config.default with
    Config.total_entries =
      [ fx "z7_bad.ml" ^ ":decode"; fx "z7_ok.ml" ^ ":decode" ];
  }

let test_z7_violations () =
  match lint_full z7_cfg [ fx "z7_bad.ml" ] with
  | [ f1; f2; f3; f4 ] ->
      check_anchor "failwith in the helper" ("Z7", 3, 47) f1;
      Alcotest.(check (list string))
        "witness crosses into the helper"
        [ "decode"; "call to need" ]
        (chain_whats f1);
      check_anchor "bare string index" ("Z7", 7, 22) f2;
      check_anchor "int_of_string" ("Z7", 8, 8) f3;
      check_anchor "String.sub" ("Z7", 8, 23) f4;
      Alcotest.(check (list string)) "direct witness" [ "decode" ] (chain_whats f4)
  | fs -> Alcotest.failf "expected 4 Z7 findings, got %d" (List.length fs)

let test_z7_scoped_to_entry () =
  (* [boom] raises, but only [decode]'s closure is checked. *)
  Alcotest.(check (list finding))
    "unreachable raiser ignored" []
    (lint z7_cfg (fx "z7_ok.ml"))

let z7_node_cfg =
  {
    Config.default with
    Config.total_entries = [ fx "z7_node_shape_bad.ml" ^ ":deliver" ];
  }

let test_z7_catches_node_index_shape () =
  (* Regression pin: the PR 6 pre-fix Vc_accept_reply shape — a wire
     replica id indexing the quorum array unchecked — is a Z7 finding
     (both the read and the write). *)
  match lint_full z7_node_cfg [ fx "z7_node_shape_bad.ml" ] with
  | [ f1; f2 ] ->
      check_anchor "unchecked array read" ("Z7", 8, 9) f1;
      check_anchor "unchecked array write" ("Z7", 8, 42) f2;
      Alcotest.(check (list string)) "witness" [ "deliver" ] (chain_whats f1)
  | fs -> Alcotest.failf "expected 2 Z7 findings, got %d" (List.length fs)

let z7_replay_cfg =
  {
    Config.default with
    Config.total_entries =
      [
        fx "z7_replay_bad.ml" ^ ":read_records";
        fx "z7_replay_ok.ml" ^ ":read_records";
      ];
  }

let test_z7_replay_violations () =
  (* The WAL-reboot shape of the wire-totality rule: a replay reader
     that trusts its own log raises through the framed-length helper
     and through the bare slices in its loop. *)
  match lint_full z7_replay_cfg [ fx "z7_replay_bad.ml" ] with
  | [ f1; f2; f3 ] ->
      check_anchor "int_of_string in the length helper" ("Z7", 5, 21) f1;
      Alcotest.(check (list string))
        "witness crosses loop and helper"
        [ "read_records"; "call to go"; "call to header" ]
        (chain_whats f1);
      check_anchor "String.sub in the length helper" ("Z7", 5, 36) f2;
      check_anchor "bare payload slice in the loop" ("Z7", 12, 20) f3
  | fs -> Alcotest.failf "expected 3 Z7 findings, got %d" (List.length fs)

let test_z7_replay_total_shape () =
  (* The shipped shape: every slice behind a bounds check (per-site
     allow on the checked helper), garbage yields the longest valid
     prefix. *)
  Alcotest.(check (list finding))
    "total replay reader passes" []
    (lint z7_replay_cfg (fx "z7_replay_ok.ml"))

let z8_cfg =
  {
    Config.default with
    Config.coordination_allow = [ "lint_fixtures" ];
    nonblock_entries =
      [ fx "z8_bad.ml" ^ ":deliver"; fx "z8_ok.ml" ^ ":deliver" ];
  }

let test_z8_violation () =
  match lint_full z8_cfg [ fx "z8_bad.ml" ] with
  | [ f ] ->
      check_anchor "parked two calls down" ("Z8", 5, 2) f;
      Alcotest.(check (list string))
        "witness"
        [ "deliver"; "call to rendezvous" ]
        (chain_whats f)
  | fs -> Alcotest.failf "expected 1 Z8 finding, got %d" (List.length fs)

let test_z8_site_allow () =
  Alcotest.(check (list finding))
    "per-site [@mk_lint.allow] suppresses" []
    (lint z8_cfg (fx "z8_ok.ml"))

let z8_drain_cfg =
  {
    Config.default with
    Config.coordination_allow = [ "lint_fixtures" ];
    nonblock_entries =
      [
        fx "z8_drain_bad.ml" ^ ":server_loop";
        fx "z8_drain_ok.ml" ^ ":server_loop";
      ];
  }

let test_z8_drain_violation () =
  (* The batched-drain shape: a parking handler is reached through the
     drain combinator's per-message callback, two hops from the server
     loop entry. *)
  match lint_full z8_drain_cfg [ fx "z8_drain_bad.ml" ] with
  | [ f ] ->
      check_anchor "parked inside the drained handler" ("Z8", 7, 2) f;
      Alcotest.(check (list string))
        "witness crosses the drain"
        [ "server_loop"; "call to drain"; "call to handle" ]
        (chain_whats f)
  | fs -> Alcotest.failf "expected 1 Z8 finding, got %d" (List.length fs)

let test_z8_drain_fallback_allowed () =
  (* The shipped idiom: non-blocking handler, and the empty-drain
     fallback to the parking pop suppressed per-site. *)
  Alcotest.(check (list finding))
    "drain loop with annotated pop fallback passes" []
    (lint z8_drain_cfg (fx "z8_drain_ok.ml"))

(* --- report plumbing: --rules filtering and --json rendering --- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_rules_filter () =
  let r = Engine.run ~config:z7_cfg ~paths:[ fx "z7_bad.ml" ] in
  Alcotest.(check int)
    "other rules filtered out" 0
    (List.length (Engine.filter_rules [ "z5"; "z8" ] r).Engine.findings);
  Alcotest.(check int)
    "named rule kept, case-insensitively"
    (List.length r.Engine.findings)
    (List.length (Engine.filter_rules [ "z7" ] r).Engine.findings)

let test_json_render () =
  let run () = Engine.run ~config:z8_cfg ~paths:[ fx "z8_bad.ml" ] in
  let js = Engine.render_json (run ()) in
  Alcotest.(check bool) "rule id" true (contains ~needle:"\"rule\":\"Z8\"" js);
  Alcotest.(check bool)
    "chain witness serialized" true
    (contains ~needle:"\"chain\":[{\"what\":\"deliver\"" js);
  Alcotest.(check bool)
    "hop locations serialized" true
    (contains ~needle:"\"what\":\"call to rendezvous\"" js);
  Alcotest.(check string) "deterministic" js (Engine.render_json (run ()))

let test_deterministic () =
  let run () = Engine.render (Engine.run ~config:Config.default ~paths:[ fx "z1_bad.ml"; fx "z2_bad.ml" ]) in
  Alcotest.(check string) "same report twice" (run ()) (run ())

(* --- config parsing --- *)

let test_config_overrides () =
  let cfg =
    Config.of_string
      "# comment\n[z1]\nallow = [\"lib/x\", \"lib/y\"]\n[z3]\nshared = \"m.ml\"\n"
  in
  Alcotest.(check (list string)) "allow" [ "lib/x"; "lib/y" ] cfg.Config.coordination_allow;
  Alcotest.(check (list string)) "shared" [ "m.ml" ] cfg.Config.shared_modules;
  (* untouched keys keep their defaults *)
  Alcotest.(check (list string))
    "guards" Config.default.Config.lock_guards cfg.Config.lock_guards

let test_config_unknown_key_rejected () =
  match Config.of_string "[z1]\nallwo = [\"lib\"]\n" with
  | _ -> Alcotest.fail "typo'd key accepted"
  | exception Config.Parse_error _ -> ()

let test_config_v2_sections () =
  (* The interprocedural sections, including a multi-line list with
     trailing comma and an inline comment — the shapes the shipped
     mk_lint.toml actually uses. *)
  let cfg =
    Config.of_string
      "[z5]\n\
       rules = [\n\
      \  \"lib/meerkat : lib/live Unix\", # transport ban\n\
      \  \"lib/wire : Unix\",\n\
       ]\n\
       allow = [\"lib/meerkat/sim_system.ml\"]\n\
       [z6]\n\
       pure = [\"lib/meerkat/protocol.ml\"]\n\
       [z7]\n\
       entries = [\"lib/wire/wire.ml:unframe\"]\n\
       raising = [\"failwith\"]\n\
       [z8]\n\
       entries = [\"lib/node/node.ml:deliver\"]\n\
       blocking = [\"Mutex.lock\"]\n\
       allow = [\"lib/node/shim.ml\"]\n"
  in
  Alcotest.(check (list (pair string (list string))))
    "layering rules parsed"
    [ ("lib/meerkat", [ "lib/live"; "Unix" ]); ("lib/wire", [ "Unix" ]) ]
    cfg.Config.layering;
  Alcotest.(check (list string))
    "z5 allow" [ "lib/meerkat/sim_system.ml" ] cfg.Config.layering_allow;
  Alcotest.(check (list string))
    "z6 pure" [ "lib/meerkat/protocol.ml" ] cfg.Config.pure_files;
  Alcotest.(check (list string))
    "z7 entries" [ "lib/wire/wire.ml:unframe" ] cfg.Config.total_entries;
  Alcotest.(check (list string)) "z7 raising override" [ "failwith" ]
    cfg.Config.raising_prims;
  Alcotest.(check (list string))
    "z8 entries" [ "lib/node/node.ml:deliver" ] cfg.Config.nonblock_entries;
  Alcotest.(check (list string)) "z8 blocking override" [ "Mutex.lock" ]
    cfg.Config.blocking_prims;
  Alcotest.(check (list string))
    "z8 allow" [ "lib/node/shim.ml" ] cfg.Config.nonblock_allow;
  (* untouched prim lists keep their curated defaults *)
  Alcotest.(check (list string))
    "z6 impure defaults survive" Config.default.Config.impure_prims
    cfg.Config.impure_prims

let test_config_unterminated_list_rejected () =
  match Config.of_string "[z5]\nrules = [\n  \"a : b\",\n" with
  | _ -> Alcotest.fail "unterminated list accepted"
  | exception Config.Parse_error _ -> ()

let test_config_bad_z5_rule_rejected () =
  match Config.of_string "[z5]\nrules = [\"no colon here\"]\n" with
  | _ -> Alcotest.fail "z5 rule without a scope accepted"
  | exception Config.Parse_error _ -> ()

(* Tests run from _build/default/test/, so every path-bearing field of
   the shipped config — including the file part of entry-point specs
   and the path-shaped halves of layering rules — is rebased with ../
   before linting the real tree. *)
let rebase_cfg cfg =
  let rebase = List.map (fun p -> "../" ^ p) in
  {
    cfg with
    Config.coordination_allow = rebase cfg.Config.coordination_allow;
    shared_modules = rebase cfg.Config.shared_modules;
    mli_required_under = rebase cfg.Config.mli_required_under;
    layering =
      List.map
        (fun (scope, forbidden) ->
          ( "../" ^ scope,
            List.map
              (fun f -> if String.contains f '/' then "../" ^ f else f)
              forbidden ))
        cfg.Config.layering;
    layering_allow = rebase cfg.Config.layering_allow;
    pure_files = rebase cfg.Config.pure_files;
    pure_allow = rebase cfg.Config.pure_allow;
    total_entries = rebase cfg.Config.total_entries;
    total_allow = rebase cfg.Config.total_allow;
    nonblock_entries = rebase cfg.Config.nonblock_entries;
    nonblock_allow = rebase cfg.Config.nonblock_allow;
  }

let test_real_config_scopes_live () =
  (* The shipped mk_lint.toml allowlists exactly the three coordination
     files of lib/live, never the directory, so runtime.ml (the
     protocol fast path) stays covered by Z1 — as does the extracted
     lib/meerkat/detector.ml, which needs no entry at all. Paths are
     rebased with ../ because tests run from _build/default/test/. *)
  let cfg = Config.load "../mk_lint.toml" in
  Alcotest.(check bool) "file-scoped, not directory-scoped" true
    (List.mem "lib/live/mailbox.ml" cfg.Config.coordination_allow
    && List.mem "lib/live/spawn.ml" cfg.Config.coordination_allow
    && List.mem "lib/live/link.ml" cfg.Config.coordination_allow
    && (not (List.mem "lib/live" cfg.Config.coordination_allow))
    && not
         (List.exists
            (fun p -> p = "lib/live/runtime.ml" || p = "lib/meerkat")
            cfg.Config.coordination_allow));
  let cfg = rebase_cfg cfg in
  Alcotest.(check (list finding)) "lib/live lints clean" []
    (lint cfg "../lib/live");
  (* batch.ml rides along so the detector's sibling [Batch] reference
     resolves in this scoped run (in the full-tree CI run it always
     does); neither file needs an allowlist entry. *)
  Alcotest.(check (list finding)) "detector.ml lints clean" []
    (lint_many cfg [ "../lib/meerkat/detector.ml"; "../lib/meerkat/batch.ml" ]);
  (* Dropping the allow entries proves they are load-bearing: the
     mailbox internals and the link delay wheel become Z1 findings —
     while runtime.ml and detector.ml keep linting clean, showing they
     never relied on an allowlist in the first place. *)
  let bare = { cfg with Config.coordination_allow = [] } in
  Alcotest.(check bool) "mailbox flagged without its entry" true
    (List.exists
       (fun (rule, _, _) -> rule = "Z1")
       (lint bare "../lib/live/mailbox.ml"));
  Alcotest.(check bool) "link flagged without its entry" true
    (List.exists
       (fun (rule, _, _) -> rule = "Z1")
       (lint bare "../lib/live/link.ml"));
  Alcotest.(check (list finding)) "runtime.ml clean even with empty allowlist" []
    (lint bare "../lib/live/runtime.ml");
  Alcotest.(check (list finding)) "detector.ml clean even with empty allowlist" []
    (lint_many bare [ "../lib/meerkat/detector.ml"; "../lib/meerkat/batch.ml" ])

let test_real_config_scopes_node () =
  (* The cluster backend gets exactly one allowlist entry: the socket
     shim (the UDP event-loop systhread). node.ml and client_driver.ml
     drive the protocol and must stay coordination-free, as must the
     pure wire codecs. *)
  let cfg = Config.load "../mk_lint.toml" in
  Alcotest.(check bool) "shim file-scoped, not directory-scoped" true
    (List.mem "lib/node/shim.ml" cfg.Config.coordination_allow
    && (not (List.mem "lib/node" cfg.Config.coordination_allow))
    && not
         (List.exists
            (fun p -> p = "lib/node/node.ml" || p = "lib/node/client_driver.ml")
            cfg.Config.coordination_allow));
  let cfg = rebase_cfg cfg in
  Alcotest.(check (list finding)) "lib/node lints clean" []
    (lint cfg "../lib/node");
  Alcotest.(check (list finding)) "lib/wire lints clean" []
    (lint cfg "../lib/wire");
  let bare = { cfg with Config.coordination_allow = [] } in
  Alcotest.(check bool) "shim flagged without its entry" true
    (List.exists
       (fun (rule, _, _) -> rule = "Z1")
       (lint bare "../lib/node/shim.ml"));
  Alcotest.(check (list finding)) "node.ml clean even with empty allowlist" []
    (lint bare "../lib/node/node.ml");
  Alcotest.(check (list finding))
    "client_driver.ml clean even with empty allowlist" []
    (lint bare "../lib/node/client_driver.ml")

let test_real_config_interprocedural () =
  (* The shipped config wires the interprocedural rules to the real
     boundaries: the wire decoders and node frame handlers are Z7
     entries, the hot loops are Z8 entries, the protocol core is the
     Z6 pure boundary and the Z5 scope. With every path rebased, the
     shipped tree must lint clean under all of them. *)
  let cfg = Config.load "../mk_lint.toml" in
  Alcotest.(check bool) "v2 sections populated" true
    (List.mem_assoc "lib/meerkat" cfg.Config.layering
    && List.mem_assoc "lib/wire" cfg.Config.layering
    && List.mem_assoc "lib/durable" cfg.Config.layering
    && List.mem_assoc "lib/shard" cfg.Config.layering
    && List.mem "lib/meerkat/protocol.ml" cfg.Config.pure_files
    && List.mem "lib/shard/router.ml" cfg.Config.pure_files
    && List.mem "lib/shard/xcoord.ml" cfg.Config.pure_files
    && List.mem "lib/shard/history.ml" cfg.Config.pure_files
    (* The client side's attempt table, shared by the cluster client
       and the live runtime, is time-injected and
       transport-free. *)
    && List.mem "lib/meerkat/attempts.ml" cfg.Config.pure_files
    (* The absorbed sim-only sketch must not keep a stale escape
       hatch: lib/shard has no layering allow at all. *)
    && (not (List.mem "lib/meerkat/sharded.ml" cfg.Config.layering_allow))
    && List.mem "lib/durable/walcodec.ml" cfg.Config.pure_files
    && List.mem "lib/wire/wire.ml:unframe" cfg.Config.total_entries
    (* The shim's per-frame decoder, and through it Wire.unframe_at,
       which neither [unframe] nor [decode] reaches. *)
    && List.mem "lib/wire/codec.ml:decode_shard_at" cfg.Config.total_entries
    && List.mem "lib/node/client_driver.ml:deliver" cfg.Config.total_entries
    && List.mem "lib/durable/walcodec.ml:read_records" cfg.Config.total_entries
    && List.mem "lib/durable/recover.ml:parse" cfg.Config.total_entries
    && List.mem "lib/node/node.ml:deliver" cfg.Config.nonblock_entries
    && List.mem "lib/live/runtime.ml:server_loop" cfg.Config.nonblock_entries
    (* The batched message plane's drain/flush paths are hot-path
       entries too: the server domain's per-message handler and the
       poll-mode drivers' frame handlers. *)
    && List.mem "lib/live/runtime.ml:server_handle" cfg.Config.nonblock_entries
    && List.mem "lib/node/client_driver.ml:deliver" cfg.Config.nonblock_entries
    (* The cluster coordinator's loop blocks only in the shim's wait:
       a sleep-and-poll doze there is a finding. *)
    && List.mem "lib/node/client_driver.ml:loop" cfg.Config.nonblock_entries);
  let cfg = rebase_cfg cfg in
  Alcotest.(check (list finding))
    "protocol core clean under Z5/Z6" []
    (lint cfg "../lib/meerkat");
  Alcotest.(check (list finding))
    "wire decoders clean under Z7" []
    (lint cfg "../lib/wire");
  Alcotest.(check (list finding))
    "node handlers clean under Z7/Z8" []
    (lint cfg "../lib/node");
  (* The durable layer under all four: Z5 keeps it below every
     backend, Z6 covers its codec halves, Z7 its replay readers. The
     wire library rides along because the codecs resolve into it. *)
  Alcotest.(check (list finding))
    "durable layer clean under Z5/Z6/Z7" []
    (lint_many cfg [ "../lib/durable"; "../lib/wire" ]);
  (* The sharding layer: Z5 keeps it below every backend and the
     protocol library, Z6 keeps router/xcoord/history pure. Its
     storage/clock/util dependencies ride along so the call graph
     resolves. *)
  Alcotest.(check (list finding))
    "shard layer clean under Z5/Z6" []
    (lint_many cfg
       [ "../lib/shard"; "../lib/storage"; "../lib/clock"; "../lib/util" ])

(* --- layer 2: the dynamic checker --- *)

let ts time = Timestamp.make ~time ~client_id:7

let with_checker f =
  Owner.enable ();
  Fun.protect ~finally:Owner.disable f

let expect_violation what f =
  match f () with
  | _ -> Alcotest.failf "%s: violation not caught" what
  | exception Owner.Violation _ -> ()

let test_owner_disabled_is_noop () =
  Owner.disable ();
  let store = Vstore.create ~shards:4 () in
  Vstore.load store ~key:1 ~value:10;
  (* Both deliberately broken paths run silently when the checker is
     off — zero-cost mode changes no behavior. *)
  (match Vstore.For_testing.unguarded_find store 1 with
  | Some _ -> ()
  | None -> Alcotest.fail "entry missing");
  Vstore.For_testing.unguarded_bump_rts (Vstore.find_exn store 1) (ts 1.0)

let test_owner_catches_prefix_find_race () =
  with_checker (fun () ->
      let store = Vstore.create ~shards:4 () in
      Vstore.load store ~key:1 ~value:10;
      (* The fixed paths pass... *)
      (match Vstore.find store 1 with
      | Some e -> ignore (Vstore.read_versioned e)
      | None -> Alcotest.fail "entry missing");
      (* ...the pre-fix shape of Vstore.find is caught. *)
      expect_violation "unguarded find" (fun () ->
          Vstore.For_testing.unguarded_find store 1))

let test_owner_catches_unguarded_mutation () =
  with_checker (fun () ->
      let store = Vstore.create ~shards:4 () in
      Vstore.load store ~key:1 ~value:10;
      let e = Vstore.find_exn store 1 in
      (* Guarded mutation passes... *)
      Vstore.with_entry e (fun e -> Vstore.set_rts e (ts 1.0));
      (* ...the same mutation outside with_entry is caught. *)
      expect_violation "unguarded mutation" (fun () ->
          Vstore.For_testing.unguarded_bump_rts e (ts 2.0)))

let test_owner_passes_occ_roundtrip () =
  with_checker (fun () ->
      let store = Vstore.create ~shards:4 () in
      for key = 0 to 7 do
        Vstore.load store ~key ~value:0
      done;
      let e = Vstore.find_exn store 3 in
      let _, wts = Vstore.read_versioned e in
      let txn =
        Txn.make
          ~tid:(Timestamp.Tid.make ~seq:1 ~client_id:7)
          ~read_set:[ { key = 3; wts } ]
          ~write_set:[ { key = 3; value = 99 } ]
      in
      (match Occ.validate store txn ~ts:(ts 1.0) with
      | `Ok -> Occ.finish store txn ~ts:(ts 1.0) ~commit:true
      | `Abort -> Alcotest.fail "validation aborted");
      Alcotest.(check (pair int int)) "no pending residue" (0, 0)
        (Vstore.pending_counts store))

let test_owner_partition_ownership () =
  with_checker (fun () ->
      let tr = Trecord.create ~cores:2 in
      let tid = Timestamp.Tid.make ~seq:1 ~client_id:0 in
      (* Own partition under an actor scope: fine. *)
      Owner.with_core 0 (fun () -> ignore (Trecord.find tr ~core:0 tid));
      (* Maintenance outside any actor scope: fine. *)
      ignore (Trecord.find tr ~core:1 tid);
      (* A foreign partition inside an actor scope: caught. *)
      expect_violation "foreign partition" (fun () ->
          Owner.with_core 0 (fun () -> Trecord.find tr ~core:1 tid)))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "Z1 violations" `Quick test_z1_violations;
          Alcotest.test_case "Z1 clean" `Quick test_z1_clean;
          Alcotest.test_case "Z1 live fast path flagged" `Quick
            test_z1_live_fastpath_flagged;
          Alcotest.test_case "Z1 live mailbox allowlisted" `Quick
            test_z1_live_mailbox_allowlisted;
          Alcotest.test_case "Z1 node core flagged" `Quick
            test_z1_node_core_flagged;
          Alcotest.test_case "Z1 node shim allowlisted" `Quick
            test_z1_node_shim_allowlisted;
          Alcotest.test_case "Z2 violations" `Quick test_z2_violations;
          Alcotest.test_case "Z2 clean" `Quick test_z2_clean;
          Alcotest.test_case "Z3 violations" `Quick test_z3_violations;
          Alcotest.test_case "Z3 clean" `Quick test_z3_clean;
          Alcotest.test_case "Z3 catches pre-fix Vstore.find" `Quick
            test_z3_catches_prefix_vstore_race;
          Alcotest.test_case "Z4 violation" `Quick test_z4_violation;
          Alcotest.test_case "Z4 clean" `Quick test_z4_clean;
          Alcotest.test_case "Z5 violation" `Quick test_z5_violation;
          Alcotest.test_case "Z5 clean" `Quick test_z5_clean;
          Alcotest.test_case "shard fixture flagged (Z5+Z6)" `Quick
            test_shard_fixture_flagged;
          Alcotest.test_case "shard fixture clean" `Quick
            test_shard_fixture_clean;
          Alcotest.test_case "Z6 violations" `Quick test_z6_violations;
          Alcotest.test_case "Z6 clean" `Quick test_z6_clean;
          Alcotest.test_case "Z6 opened alias resolves" `Quick test_z6_open_alias;
          Alcotest.test_case "Z7 violations" `Quick test_z7_violations;
          Alcotest.test_case "Z7 scoped to entry" `Quick test_z7_scoped_to_entry;
          Alcotest.test_case "Z7 catches node index shape" `Quick
            test_z7_catches_node_index_shape;
          Alcotest.test_case "Z7 replay violations" `Quick
            test_z7_replay_violations;
          Alcotest.test_case "Z7 replay total shape" `Quick
            test_z7_replay_total_shape;
          Alcotest.test_case "Z8 violation" `Quick test_z8_violation;
          Alcotest.test_case "Z8 per-site allow" `Quick test_z8_site_allow;
          Alcotest.test_case "Z8 drain violation" `Quick test_z8_drain_violation;
          Alcotest.test_case "Z8 drain fallback allow" `Quick
            test_z8_drain_fallback_allowed;
          Alcotest.test_case "rules filter" `Quick test_rules_filter;
          Alcotest.test_case "json render" `Quick test_json_render;
          Alcotest.test_case "deterministic output" `Quick test_deterministic;
        ] );
      ( "config",
        [
          Alcotest.test_case "overrides" `Quick test_config_overrides;
          Alcotest.test_case "unknown key rejected" `Quick
            test_config_unknown_key_rejected;
          Alcotest.test_case "v2 sections" `Quick test_config_v2_sections;
          Alcotest.test_case "unterminated list rejected" `Quick
            test_config_unterminated_list_rejected;
          Alcotest.test_case "bad z5 rule rejected" `Quick
            test_config_bad_z5_rule_rejected;
          Alcotest.test_case "shipped config scopes lib/live" `Quick
            test_real_config_scopes_live;
          Alcotest.test_case "shipped config scopes lib/node" `Quick
            test_real_config_scopes_node;
          Alcotest.test_case "shipped config interprocedural rules" `Quick
            test_real_config_interprocedural;
        ] );
      ( "owner",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_owner_disabled_is_noop;
          Alcotest.test_case "catches pre-fix find race" `Quick
            test_owner_catches_prefix_find_race;
          Alcotest.test_case "catches unguarded mutation" `Quick
            test_owner_catches_unguarded_mutation;
          Alcotest.test_case "occ roundtrip passes" `Quick
            test_owner_passes_occ_roundtrip;
          Alcotest.test_case "trecord partition ownership" `Quick
            test_owner_partition_ownership;
        ] );
    ]
