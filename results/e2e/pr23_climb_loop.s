# histok_sort::run_gen::replacement_selection::climb::<false>, inner loop, as compiled into the bench_e2e
# binary measured in pr23.json (rustc 1.95.0, --release, cargo rustc ... -- --emit asm -C debuginfo=0).
# rdi = nodes.as_ptr(), rsi = nodes.len(), rdx = i; the running winner is r10 (run), r11 (prefix),
# r9 (seq), r8 (leaf). The three jumps are two bounds checks (jae) and the loop (ja); none tests the
# outcome of the match, which reaches the four cmovne through the flags of the final orb.
.LBB122_3:
	movq	%rdx, %rcx
	xorq	$1, %rcx
	cmpq	%rsi, %rcx
	jae	.LBB122_9
	movq	%rdx, %rax
	shrq	%rax
	cmpq	%rsi, %rax
	jae	.LBB122_7
	shlq	$5, %rcx
	movq	(%rdi,%rcx), %rbx
	movq	8(%rdi,%rcx), %r14
	cmpq	%r11, %r14
	movq	%rbx, %r15
	sbbq	%r10, %r15
	setb	%bpl
	movq	%rbx, %r15
	xorq	%r10, %r15
	movq	%r14, %r12
	xorq	%r11, %r12
	orq	%r15, %r12
	sete	%r15b
	movq	16(%rdi,%rcx), %r12
	cmpq	%r9, %r12
	setb	%r13b
	andb	%r15b, %r13b
	orb	%bpl, %r13b
	cmovneq	24(%rdi,%rcx), %r8
	cmovneq	%r12, %r9
	cmovneq	%r14, %r11
	cmovneq	%rbx, %r10
	movq	%rax, %rcx
	shlq	$5, %rcx
	movq	%r10, (%rdi,%rcx)
	movq	%r11, 8(%rdi,%rcx)
	movq	%r9, 16(%rdi,%rcx)
	movq	%r8, 24(%rdi,%rcx)
	cmpq	$3, %rdx
	movq	%rax, %rdx
	ja	.LBB122_3
