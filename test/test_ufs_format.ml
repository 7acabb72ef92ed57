(* Tests for the UFS on-disk format layer: codec, layout arithmetic,
   superblock, cylinder groups, dinodes. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Codec ---------- *)

let test_codec_roundtrips () =
  let b = Bytes.make 64 '\000' in
  Ufs.Codec.put_u8 b 0 0xAB;
  check_int "u8" 0xAB (Ufs.Codec.get_u8 b 0);
  Ufs.Codec.put_u16 b 2 0xBEEF;
  check_int "u16" 0xBEEF (Ufs.Codec.get_u16 b 2);
  Ufs.Codec.put_u32 b 4 0xFFFFFFFF;
  check_int "u32 max" 0xFFFFFFFF (Ufs.Codec.get_u32 b 4);
  Ufs.Codec.put_u32 b 4 0;
  check_int "u32 zero" 0 (Ufs.Codec.get_u32 b 4);
  Ufs.Codec.put_u64 b 8 ((1 lsl 40) + 17);
  check_int "u64" ((1 lsl 40) + 17) (Ufs.Codec.get_u64 b 8);
  Ufs.Codec.put_string b 16 10 "hello";
  Alcotest.(check string) "string trims NULs" "hello" (Ufs.Codec.get_string b 16 10)

let test_codec_errors () =
  let b = Bytes.make 8 '\000' in
  Alcotest.check_raises "u32 overflow"
    (Invalid_argument "Codec.put_u32: out of range") (fun () ->
      Ufs.Codec.put_u32 b 0 (1 lsl 33));
  Alcotest.check_raises "string too long"
    (Invalid_argument "Codec.put_string: too long") (fun () ->
      Ufs.Codec.put_string b 0 3 "abcd")

(* ---------- Layout ---------- *)

let test_layout_constants () =
  check_int "fpb" 8 Ufs.Layout.fpb;
  check_int "inodes per block" 64 Ufs.Layout.inodes_per_block;
  check_int "nindir" 2048 Ufs.Layout.nindir;
  check_int "frag->byte" 8192 (Ufs.Layout.frag_to_byte 8);
  check_int "frag->sector" 16 (Ufs.Layout.frag_to_sector 8);
  check_int "lbn of 8191" 0 (Ufs.Layout.lbn_of_off 8191);
  check_int "lbn of 8192" 1 (Ufs.Layout.lbn_of_off 8192);
  check_int "blocks of 0" 0 (Ufs.Layout.blocks_of_size 0);
  check_int "blocks of 1" 1 (Ufs.Layout.blocks_of_size 1);
  check_int "frags of 1025" 2 (Ufs.Layout.frags_of_bytes 1025)

let test_layout_classify () =
  check_bool "direct 0" true (Ufs.Layout.classify 0 = Ufs.Layout.Direct 0);
  check_bool "direct 11" true (Ufs.Layout.classify 11 = Ufs.Layout.Direct 11);
  check_bool "single 0" true (Ufs.Layout.classify 12 = Ufs.Layout.Single 0);
  check_bool "single last" true
    (Ufs.Layout.classify (12 + 2047) = Ufs.Layout.Single 2047);
  check_bool "double start" true
    (Ufs.Layout.classify (12 + 2048) = Ufs.Layout.Double (0, 0));
  check_bool "double (1,1)" true
    (Ufs.Layout.classify (12 + 2048 + 2049) = Ufs.Layout.Double (1, 1));
  check_bool "EFBIG past max" true
    (try
       ignore (Ufs.Layout.classify Ufs.Layout.max_lbn);
       false
     with Vfs.Errno.Error (Vfs.Errno.EFBIG, _) -> true)

(* ---------- Superblock ---------- *)

let mk_sb () =
  Superblock_helpers.make ()

(* ---------- Cg / Dinode below use a real superblock ---------- *)

let test_superblock_roundtrip () =
  let sb = mk_sb () in
  sb.Ufs.Superblock.nbfree <- 123;
  sb.Ufs.Superblock.nffree <- 45;
  sb.Ufs.Superblock.nifree <- 678;
  sb.Ufs.Superblock.clean <- false;
  let sb' = Ufs.Superblock.decode (Ufs.Superblock.encode sb) in
  check_int "nfrags" sb.Ufs.Superblock.nfrags sb'.Ufs.Superblock.nfrags;
  check_int "nbfree" 123 sb'.Ufs.Superblock.nbfree;
  check_int "nffree" 45 sb'.Ufs.Superblock.nffree;
  check_int "nifree" 678 sb'.Ufs.Superblock.nifree;
  check_bool "clean" false sb'.Ufs.Superblock.clean;
  check_int "maxcontig" sb.Ufs.Superblock.maxcontig sb'.Ufs.Superblock.maxcontig

let test_superblock_bad_magic () =
  let b = Bytes.make Ufs.Layout.bsize '\000' in
  check_bool "bad magic raises EINVAL" true
    (try
       ignore (Ufs.Superblock.decode b);
       false
     with Vfs.Errno.Error (Vfs.Errno.EINVAL, _) -> true)

let test_superblock_derived () =
  let sb = mk_sb () in
  check_bool "data frags positive and less than total" true
    (Ufs.Superblock.data_frags sb > 0
    && Ufs.Superblock.data_frags sb < sb.Ufs.Superblock.nfrags);
  check_int "minfree is 10%" (Ufs.Superblock.data_frags sb / 10)
    (Ufs.Superblock.minfree_frags sb);
  check_int "cg_of_frag" 1 (Ufs.Superblock.cg_of_frag sb 4096);
  check_int "cg_of_inum" 1 (Ufs.Superblock.cg_of_inum sb 512)

(* ---------- Cg ---------- *)

let test_cg_bitmaps () =
  let sb = mk_sb () in
  let cg = Ufs.Cg.create_empty sb 1 in
  let f0 = Ufs.Cg.data_begin sb 1 in
  check_bool "starts allocated" false (Ufs.Cg.frag_free cg sb f0);
  Ufs.Cg.set_frag cg sb f0 ~free:true;
  check_bool "freed" true (Ufs.Cg.frag_free cg sb f0);
  check_bool "dirty after mutation" true cg.Ufs.Cg.dirty;
  (* whole-block test needs alignment *)
  let base = f0 + (Ufs.Layout.fpb - (f0 mod Ufs.Layout.fpb)) mod Ufs.Layout.fpb in
  for i = 0 to Ufs.Layout.fpb - 1 do
    Ufs.Cg.set_frag cg sb (base + i) ~free:true
  done;
  check_bool "block free when all bits set" true (Ufs.Cg.block_free cg sb base);
  Ufs.Cg.set_frag cg sb (base + 3) ~free:false;
  check_bool "block not free with one bit clear" false
    (Ufs.Cg.block_free cg sb base);
  Alcotest.check_raises "unaligned block test"
    (Invalid_argument "Cg.block_free: not block-aligned") (fun () ->
      ignore (Ufs.Cg.block_free cg sb (base + 1)))

let test_cg_out_of_group () =
  let sb = mk_sb () in
  let cg = Ufs.Cg.create_empty sb 1 in
  check_bool "frag outside group rejected" true
    (try
       ignore (Ufs.Cg.frag_free cg sb 0);
       false
     with Invalid_argument _ -> true)

let test_cg_roundtrip_and_recount () =
  let sb = mk_sb () in
  let cg = Ufs.Cg.create_empty sb 0 in
  (* free a block-aligned block and two loose frags, three inodes *)
  let d = Ufs.Cg.data_begin sb 0 in
  let base = d + ((Ufs.Layout.fpb - (d mod Ufs.Layout.fpb)) mod Ufs.Layout.fpb) in
  for i = 0 to Ufs.Layout.fpb - 1 do
    Ufs.Cg.set_frag cg sb (base + i) ~free:true
  done;
  Ufs.Cg.set_frag cg sb (base + Ufs.Layout.fpb) ~free:true;
  Ufs.Cg.set_frag cg sb (base + Ufs.Layout.fpb + 1) ~free:true;
  List.iter (fun i -> Ufs.Cg.set_inode cg i ~free:true) [ 3; 4; 5 ];
  let nb, nf, ni = Ufs.Cg.recount cg sb in
  check_int "one free block" 1 nb;
  check_int "two loose frags" 2 nf;
  check_int "three free inodes" 3 ni;
  cg.Ufs.Cg.nbfree <- nb;
  cg.Ufs.Cg.nffree <- nf;
  cg.Ufs.Cg.nifree <- ni;
  cg.Ufs.Cg.rotor <- 99;
  let cg' = Ufs.Cg.decode (Ufs.Cg.encode cg sb) sb 0 in
  check_int "rotor" 99 cg'.Ufs.Cg.rotor;
  let nb', nf', ni' = Ufs.Cg.recount cg' sb in
  check_bool "bitmaps identical after roundtrip" true
    ((nb, nf, ni) = (nb', nf', ni'));
  check_bool "decoded not dirty" false cg'.Ufs.Cg.dirty

let test_cg_dinode_loc () =
  let sb = mk_sb () in
  (* inode 0 of group 0 is at the start of cg0's inode area *)
  let frag, byte = Ufs.Cg.dinode_loc sb 0 in
  check_int "first inode frag" (Ufs.Cg.inode_area_frag sb 0) frag;
  check_int "first inode offset" 0 byte;
  (* 8 dinodes of 128B per 1KB fragment *)
  let frag8, byte8 = Ufs.Cg.dinode_loc sb 8 in
  check_int "inode 8 next frag" (Ufs.Cg.inode_area_frag sb 0 + 1) frag8;
  check_int "inode 8 offset" 0 byte8;
  (* group 1's inodes live in group 1 *)
  let frag_g1, _ = Ufs.Cg.dinode_loc sb sb.Ufs.Superblock.ipg in
  check_int "group 1 inode area" (Ufs.Cg.inode_area_frag sb 1) frag_g1

(* Random groups against a per-bit reference: a short last group (its
   size need not be a whole number of blocks), a free data area with a
   journal carved from its tail, unaligned range edges, and an [ipg]
   that is not a multiple of 8.  The byte-wise range setters, block
   tests and [recount] must agree bit for bit with the reference. *)
type cg_case = {
  fpg : int;
  ncg : int;
  last : int;  (** fragments in the last group *)
  ipg : int;
  c : int;  (** the group under test *)
  frag_ops : ((int * int) * bool) list;  (** local [lo, hi), free *)
  inode_ops : ((int * int) * bool) list;
}

let gen_cg_case =
  let open QCheck.Gen in
  let* fpg = map (fun b -> 8 * b) (int_range 2 40) in
  let* ncg = int_range 1 3 in
  let* last = int_range 1 fpg in
  let* ipg = int_range 1 100 in
  let* c = int_range 0 (ncg - 1) in
  let nf = if c = ncg - 1 then last else fpg in
  let range n =
    let* a = int_range 0 n and* b = int_range 0 n in
    return (min a b, max a b)
  in
  let* data = int_range 0 nf in
  let* jrnl = int_range 0 (nf - data) in
  let* frag_ops = list_size (int_range 0 12) (pair (range nf) bool) in
  let* inode_ops = list_size (int_range 0 6) (pair (range ipg) bool) in
  return
    {
      fpg;
      ncg;
      last;
      ipg;
      c;
      frag_ops = ((data, nf), true) :: ((nf - jrnl, nf), false) :: frag_ops;
      inode_ops = ((0, ipg), true) :: inode_ops;
    }

let print_cg_case k =
  let ops l =
    String.concat "; "
      (List.map (fun ((lo, hi), f) -> Printf.sprintf "[%d,%d)%s" lo hi (if f then "+" else "-")) l)
  in
  Printf.sprintf "fpg=%d ncg=%d last=%d ipg=%d c=%d frags: %s inodes: %s" k.fpg
    k.ncg k.last k.ipg k.c (ops k.frag_ops) (ops k.inode_ops)

let cg_matches_reference k =
  let sb =
    {
      (Ufs.Superblock.create
         ~nfrags:(((k.ncg - 1) * k.fpg) + k.last)
         ~ncg:k.ncg ~fpg:k.fpg ~ipg:Ufs.Layout.inodes_per_block ())
      with
      Ufs.Superblock.ipg = k.ipg;
    }
  in
  let cg = Ufs.Cg.create_empty sb k.c in
  let base = Ufs.Cg.cg_begin sb k.c in
  let nf = Ufs.Cg.cg_end sb k.c - base in
  let frags = Array.make nf false and inodes = Array.make k.ipg false in
  List.iter
    (fun ((lo, hi), free) ->
      Ufs.Cg.set_frags cg sb ~lo:(base + lo) ~hi:(base + hi) ~free;
      Array.fill frags lo (hi - lo) free)
    k.frag_ops;
  List.iter
    (fun ((lo, hi), free) ->
      Ufs.Cg.set_inodes cg ~lo ~hi ~free;
      Array.fill inodes lo (hi - lo) free)
    k.inode_ops;
  let fail fmt = QCheck.Test.fail_reportf fmt in
  Array.iteri
    (fun i free ->
      if Ufs.Cg.frag_free cg sb (base + i) <> free then fail "frag %d" i)
    frags;
  Array.iteri
    (fun i free -> if Ufs.Cg.inode_free cg i <> free then fail "inode %d" i)
    inodes;
  let nbfree = ref 0 and nffree = ref 0 in
  for b = 0 to ((nf + 7) / 8) - 1 do
    let n = ref 0 and bits = ref 0 in
    for i = 0 to 7 do
      let l = (8 * b) + i in
      if l < nf && frags.(l) then begin
        incr n;
        bits := !bits lor (1 lsl i)
      end
    done;
    let whole = !n = 8 in
    if whole then incr nbfree else nffree := !nffree + !n;
    let f = base + (8 * b) in
    if Ufs.Cg.block_free cg sb f <> whole then fail "block_free %d" b;
    if Ufs.Cg.free_frags_in_block cg sb f <> !n then fail "free_frags %d" b;
    if Ufs.Cg.block_bits cg sb f <> !bits then fail "block_bits %d" b
  done;
  let nifree = Array.fold_left (fun a f -> if f then a + 1 else a) 0 inodes in
  let got = Ufs.Cg.recount cg sb in
  if got <> (!nbfree, !nffree, nifree) then
    (let nb, nff, ni = got in
     fail "recount (%d,%d,%d), reference (%d,%d,%d)" nb nff ni !nbfree !nffree
       nifree);
  true

let test_cg_reference =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 8 |])
    (QCheck.Test.make ~count:300 ~name:"cg bitmaps vs per-bit reference"
       (QCheck.make ~print:print_cg_case gen_cg_case)
       cg_matches_reference)

(* mkfs images pinned by digest: the bitmap code may change how it sets
   bits, never which.  The digest is MD5 over every non-zero 8 KB chunk
   of the device, each prefixed with its index, so the zeros of a 400 MB
   disk cost no hashing. *)
let image_digest dev =
  let st = Disk.Blkdev.store dev in
  let size = Disk.Store.size st and chunk = 8192 in
  let buf = Bytes.create chunk and zero = Bytes.make chunk '\000' in
  let acc = Buffer.create 65536 in
  for i = 0 to ((size + chunk - 1) / chunk) - 1 do
    let len = min chunk (size - (i * chunk)) in
    Bytes.fill buf 0 chunk '\000';
    Disk.Store.read st ~off:(i * chunk) ~len buf 0;
    if not (Bytes.equal buf zero) then begin
      Buffer.add_string acc (Printf.sprintf "%d:" i);
      Buffer.add_bytes acc buf
    end
  done;
  Digest.to_hex (Digest.string (Buffer.contents acc))

let test_mkfs_images_pinned () =
  let image disk opts =
    let dev = Disk.Blkdev.of_device (Disk.Device.create (Sim.Engine.create ()) disk) in
    Ufs.Fs.mkfs dev ~opts ();
    image_digest dev
  in
  Alcotest.(check string)
    "sun0400, default mkfs" "2c3f07f150ff373e441bf297bc4ed608"
    (image Disk.Device.default_config Ufs.Fs.mkfs_defaults);
  Alcotest.(check string)
    "small disk, small mkfs" "96337cee3558e0d12619ce7d76cb7f72"
    (image Helpers.small_disk Helpers.small_mkfs);
  Alcotest.(check string)
    "small disk, journaled" "bb161c10e9bef31ee85e3dce519875cd"
    (image Helpers.small_disk
       { Helpers.small_mkfs with Ufs.Fs.journal_frags = Ufs.Fs.journal_frags_default })

(* ---------- Dinode ---------- *)

let test_dinode_roundtrip () =
  let d = Ufs.Dinode.empty () in
  d.Ufs.Dinode.kind <- Ufs.Dinode.Reg;
  d.Ufs.Dinode.nlink <- 3;
  d.Ufs.Dinode.size <- 123456789;
  d.Ufs.Dinode.blocks <- 424242;
  d.Ufs.Dinode.gen <- 7;
  Array.iteri (fun i _ -> d.Ufs.Dinode.db.(i) <- 1000 + i) d.Ufs.Dinode.db;
  d.Ufs.Dinode.ib.(0) <- 5555;
  d.Ufs.Dinode.ib.(1) <- 6666;
  let b = Bytes.make Ufs.Layout.bsize '\000' in
  Ufs.Dinode.encode d b 256;
  let d' = Ufs.Dinode.decode b 256 in
  check_bool "kind" true (d'.Ufs.Dinode.kind = Ufs.Dinode.Reg);
  check_int "nlink" 3 d'.Ufs.Dinode.nlink;
  check_int "size" 123456789 d'.Ufs.Dinode.size;
  check_int "blocks" 424242 d'.Ufs.Dinode.blocks;
  check_int "gen" 7 d'.Ufs.Dinode.gen;
  check_int "db 11" 1011 d'.Ufs.Dinode.db.(11);
  check_int "ib 1" 6666 d'.Ufs.Dinode.ib.(1)

let test_dinode_symlink_immediate () =
  let d = Ufs.Dinode.empty () in
  d.Ufs.Dinode.kind <- Ufs.Dinode.Lnk;
  d.Ufs.Dinode.immediate <- "/a/b/target";
  let b = Bytes.make Ufs.Layout.bsize '\000' in
  Ufs.Dinode.encode d b 0;
  let d' = Ufs.Dinode.decode b 0 in
  Alcotest.(check string) "immediate" "/a/b/target" d'.Ufs.Dinode.immediate

let test_dinode_kind_checks () =
  check_bool "bad kind code raises" true
    (let b = Bytes.make Ufs.Layout.dinode_bytes '\000' in
     Ufs.Codec.put_u16 b 0 9;
     try
       ignore (Ufs.Dinode.decode b 0);
       false
     with Vfs.Errno.Error (Vfs.Errno.EINVAL, _) -> true);
  Alcotest.check_raises "free inode has no vnode kind"
    (Invalid_argument "Dinode.kind_to_vnode: free inode") (fun () ->
      ignore (Ufs.Dinode.kind_to_vnode Ufs.Dinode.Free))

let suites =
  [
    ( "ufs-format",
      [
        Alcotest.test_case "codec roundtrips" `Quick test_codec_roundtrips;
        Alcotest.test_case "codec errors" `Quick test_codec_errors;
        Alcotest.test_case "layout constants" `Quick test_layout_constants;
        Alcotest.test_case "layout classify" `Quick test_layout_classify;
        Alcotest.test_case "superblock roundtrip" `Quick
          test_superblock_roundtrip;
        Alcotest.test_case "superblock bad magic" `Quick
          test_superblock_bad_magic;
        Alcotest.test_case "superblock derived" `Quick test_superblock_derived;
        Alcotest.test_case "cg bitmaps" `Quick test_cg_bitmaps;
        Alcotest.test_case "cg group bounds" `Quick test_cg_out_of_group;
        Alcotest.test_case "cg roundtrip+recount" `Quick
          test_cg_roundtrip_and_recount;
        Alcotest.test_case "cg dinode location" `Quick test_cg_dinode_loc;
        test_cg_reference;
        Alcotest.test_case "mkfs images pinned" `Quick test_mkfs_images_pinned;
        Alcotest.test_case "dinode roundtrip" `Quick test_dinode_roundtrip;
        Alcotest.test_case "dinode symlink" `Quick test_dinode_symlink_immediate;
        Alcotest.test_case "dinode kind checks" `Quick test_dinode_kind_checks;
      ] );
  ]
