(** Bounded-pattern jump-table resolution, in the style of DYNINST's
    backward slicing (§IV-C, construct 1): the only indirect jumps the safe
    analyses follow are those proven to dispatch through a bounds-checked
    table, and then only to the table's entries.

    Recognized shapes (both GCC-style absolute tables and Clang/PIC-style
    offset tables):

    {v
      cmp  idx, N ; ja default ; jmp [table + idx*8]
      cmp  idx, N ; ja default ; mov r, [table + idx*8] ; jmp r
      cmp  idx, N ; ja default ; lea rt, [rip+table] ;
          movsxd rx, [rt + idx*4] ; add rx, rt ; jmp rx
    v} *)

open Fetch_x86

(* How far back we search in the already-decoded instruction window. *)
let window = 12

type resolved = { table_addr : int; targets : int list }

(* Find the most recent [cmp idx, imm] guarded by [ja] in the window.
   [preceding] is the reversed list of instructions decoded before the jump. *)
let find_bound ~preceding idx =
  let rec scan saw_ja = function
    | [] -> None
    | insn :: rest -> (
        match insn with
        | Insn.Jcc (Insn.A, _) | Insn.Jcc_short (Insn.A, _) -> scan true rest
        | Insn.Arith (Insn.Cmp, _, Insn.Reg r, Insn.Imm n)
          when Reg.equal r idx && saw_ja ->
            Some (n + 1)
        | Insn.Arith (_, _, Insn.Reg r, _) when Reg.equal r idx -> None
        | Insn.Mov (_, Insn.Reg r, _) when Reg.equal r idx -> None
        | _ -> scan saw_ja rest)
  in
  scan false preceding

let read_abs_table image ~table_addr ~count =
  let rec go i acc =
    if i >= count then Some (List.rev acc)
    else
      match Fetch_elf.Image.read_u64 image (table_addr + (8 * i)) with
      | Some v -> go (i + 1) (v :: acc)
      | None -> None
  in
  go 0 []

let read_pic_table image ~table_addr ~count =
  let rec go i acc =
    if i >= count then Some (List.rev acc)
    else
      match Fetch_elf.Image.read image ~addr:(table_addr + (4 * i)) ~len:4 with
      | Some s ->
          let off = Int32.to_int (String.get_int32_le s 0) in
          go (i + 1) ((table_addr + off) :: acc)
      | None -> None
  in
  go 0 []

let validate image targets =
  if List.for_all (Fetch_elf.Image.in_exec_range image) targets then
    Some targets
  else None

(* Trace how register [r] got its value: a table load or a PIC add. *)
let rec resolve_reg image ~preceding r =
  match preceding with
  | [] -> None
  | insn :: rest -> (
      match insn with
      | Insn.Mov (Insn.W64, Insn.Reg d, Insn.Mem m) when Reg.equal d r -> (
          (* mov r, [table + idx*8] *)
          match (m.base, m.index, m.rip_rel) with
          | None, Some (idx, 8), false -> (
              match find_bound ~preceding:rest idx with
              | Some count -> (
                  match read_abs_table image ~table_addr:m.disp ~count with
                  | Some targets ->
                      Option.map
                        (fun t -> { table_addr = m.disp; targets = t })
                        (validate image targets)
                  | None -> None)
              | None -> None)
          | _ -> None)
      | Insn.Arith (Insn.Add, Insn.W64, Insn.Reg d, Insn.Reg base)
        when Reg.equal d r ->
          (* add rx, rt: PIC pattern; keep looking for the movsxd *)
          resolve_pic image ~preceding:rest ~rx:r ~rt:base
      | Insn.Mov (_, Insn.Reg d, _) when Reg.equal d r -> None
      | Insn.Lea (d, _) when Reg.equal d r -> None
      | _ -> resolve_reg image ~preceding:rest r)

and resolve_pic image ~preceding ~rx ~rt =
  (* expect: movsxd rx, [rt + idx*4]  ...  lea rt, [rip+table] *)
  let rec find_movsxd = function
    | [] -> None
    | Insn.Movsxd (d, m) :: rest when Reg.equal d rx -> (
        match (m.base, m.index) with
        | Some b, Some (idx, 4) when Reg.equal b rt -> Some (idx, rest)
        | _ -> None)
    | _ :: rest -> find_movsxd rest
  in
  match find_movsxd preceding with
  | None -> None
  | Some (idx, rest) -> (
      (* [rest] is the reversed stream before the movsxd: the lea that
         materializes the table base and, further back, the cmp/ja bound.
         RIP-relative displacements were absolutized by [resolve], so the
         lea appears with a bare absolute displacement. *)
      let rec find_lea = function
        | [] -> None
        | Insn.Lea (d, m) :: _
          when Reg.equal d rt && m.base = None && m.index = None ->
            Some m.disp
        | _ :: r -> find_lea r
      in
      match find_lea rest with
      | None -> None
      | Some table_addr -> (
          match find_bound ~preceding:rest idx with
          | Some count -> (
              match read_pic_table image ~table_addr ~count with
              | Some targets ->
                  Option.map
                    (fun t -> { table_addr; targets = t })
                    (validate image targets)
              | None -> None)
          | None -> None))

(** Try to resolve the indirect jump [jmp_insn] located at [addr], given the
    reversed window of instructions preceding it in the same block, as
    (address, instruction) pairs. *)
let resolve (image : Fetch_elf.Image.t) ~preceding (operand : Insn.operand) =
  let preceding =
    (* absolutize rip-relative displacements using each insn's end addr *)
    List.filteri (fun i _ -> i < window) preceding
    |> List.map (fun (addr, len, insn) ->
           Insn.map_mem
             (fun m ->
               if m.rip_rel then { m with disp = addr + len + m.disp; rip_rel = false }
               else m)
             insn)
  in
  match operand with
  | Insn.Mem m when not m.rip_rel -> (
      (* jmp [table + idx*8] *)
      match (m.base, m.index) with
      | None, Some (idx, 8) -> (
          match find_bound ~preceding idx with
          | Some count -> (
              match read_abs_table image ~table_addr:m.disp ~count with
              | Some targets ->
                  Option.map
                    (fun t -> { table_addr = m.disp; targets = t })
                    (validate image targets)
              | None -> None)
          | None -> None)
      | _ -> None)
  | Insn.Reg r -> resolve_reg image ~preceding r
  | Insn.Mem _ | Insn.Imm _ -> None
